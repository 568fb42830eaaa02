// Command exports lists the exported identifiers declared in non-test files
// under internal/ whose name no non-test Go file outside bench/ uses, apart
// from the declaration itself, and exits 1 if it lists any.  The scan is by
// name: a function, method, type, variable or constant counts as used when
// any identifier anywhere spells its name, so it only undercounts.
//
// allow.txt, beside this file, exempts a whole package ("internal/model") or
// one identifier ("internal/store.LookupCols"), each with its reason after a
// '#'.  Run from the repository root:
//
//	go run ./scripts/exports
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	allow, err := readAllow("scripts/exports/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "exports:", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	type decl struct{ dir, name string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	used := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			for _, id := range exported(f) {
				declared[id] = true
				decls = append(decls, decl{dir, id.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "exports:", err)
		os.Exit(2)
	}
	var unused []string
	for _, d := range decls {
		if !used[d.name] && !allow[d.dir] && !allow[d.dir+"."+d.name] {
			unused = append(unused, d.dir+"."+d.name)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		fmt.Println(u)
	}
	if len(unused) > 0 {
		os.Exit(1)
	}
}

// exported returns the identifiers of f's exported top-level functions,
// methods, types, variables and constants.
func exported(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				}
			}
		}
	}
	return slices.DeleteFunc(ids, func(id *ast.Ident) bool { return !id.IsExported() })
}

// readAllow reads the allow-list: one package directory or dir.Name per
// line, with blank lines and everything after a '#' ignored.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line != "" {
			allow[line] = true
		}
	}
	return allow, sc.Err()
}
