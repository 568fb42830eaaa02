package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"ldl1"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
)

// parseExecArgs parses the comma-separated constants of an :exec line by
// wrapping them in a dummy literal, so commas nested inside compound terms
// and sets parse correctly.  Input that closes the literal early
// ("a), foo(b") is rejected, not cut short.
func parseExecArgs(s string) ([]ldl1.Term, error) {
	if s == "" {
		return nil, nil
	}
	q, err := parser.ParseQuery("exec(" + s + ")")
	if err != nil {
		return nil, fmt.Errorf("bad :exec arguments: %w", err)
	}
	if len(q.Body) != 1 {
		return nil, fmt.Errorf("bad :exec arguments: %q is not one argument list", s)
	}
	lit := q.Body[0]
	out := make([]ldl1.Term, len(lit.Args))
	for i, a := range lit.Args {
		out[i] = a
	}
	return out, nil
}

// repl runs an interactive query loop against the engine, the one handle
// every command reads and writes.  Lines are queries ("ancestor(abe, W)" or
// "?- ancestor(abe, W)."); assert/retract apply incremental update
// transactions to the engine's model; colon commands provide extras:
//
//	assert f(a, b).    insert extensional facts, update the model in place
//	retract f(a, b).   remove extensional facts, update the model in place
//	:assert f(a, b).   load extensional facts; the next read inserts them
//	:explain f(a, b)   print a proof tree for a fact in the model
//	:prepare q(a, X)   compile a query once for repeated execution
//	:exec b, c         run the prepared query with new constants (no args
//	                   re-runs the original ones)
//	:model             print the whole minimal model
//	:strata            print the layering
//	:check             run the static analyzer over the loaded program
//	:help              this text
//	:quit              leave
//
// Ctrl-C cancels the evaluation in flight — the model rolls back to its
// pre-operation state — and returns to the prompt instead of killing the
// process.
func repl(eng *ldl1.Engine, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "LDL1 interactive — :help for commands, :quit to leave (Ctrl-C interrupts a running query)")
	sc := bufio.NewScanner(in)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	// interruptible runs one evaluation under a context that Ctrl-C
	// cancels.  A signal arriving at the prompt (no evaluation in flight)
	// is drained first so it cannot cancel the next operation spuriously.
	interruptible := func(fn func(ctx context.Context) error) error {
		select {
		case <-sig:
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-sig:
				cancel()
			case <-done:
			}
		}()
		return fn(ctx)
	}
	report := func(err error) {
		if errors.Is(err, lderr.Canceled) {
			fmt.Fprintln(out, "interrupted")
			return
		}
		fmt.Fprintln(out, "error:", err)
	}

	// The current :prepare handle, run by :exec.
	var prep *ldl1.PreparedQuery
	update := func(src string, retract bool) {
		if !strings.HasSuffix(src, ".") {
			src += "."
		}
		var res ldl1.UpdateResult
		err := interruptible(func(ctx context.Context) error {
			var err error
			if retract {
				res, err = eng.RetractCtx(ctx, src)
			} else {
				res, err = eng.AssertCtx(ctx, src)
			}
			return err
		})
		if err != nil {
			report(err)
			return
		}
		fmt.Fprintf(out, "model: +%d -%d facts\n", res.Inserted, res.Deleted)
	}
	for {
		fmt.Fprint(out, "?- ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == ":quit" || line == ":q":
			return nil
		case line == ":help":
			fmt.Fprintln(out, "<query>  assert <facts>.  retract <facts>.  :assert <facts> (load)  :explain <fact>  :prepare <query>  :exec <consts>  :model  :strata  :check  :quit")
		case line == ":check" || line == "check":
			ds := eng.Vet()
			if len(ds) == 0 {
				fmt.Fprintln(out, "ok: no diagnostics")
			} else {
				color := isTerminal(out)
				for _, d := range ds {
					fmt.Fprintln(out, renderDiag(d, color))
					for _, rel := range d.Related {
						fmt.Fprintf(out, "\t%s: %s\n", rel.Pos, rel.Message)
					}
				}
			}
			if sigs := eng.Signatures(); len(sigs) > 0 {
				fmt.Fprintln(out, "inferred signatures:")
				for _, s := range sigs {
					fmt.Fprintf(out, "  %s/%d: (%s)\n", s.Pred, s.Arity, strings.Join(s.Args, ", "))
				}
			}
		case line == ":model":
			var m *ldl1.Model
			err := interruptible(func(ctx context.Context) error {
				var err error
				m, err = eng.RunCtx(ctx)
				return err
			})
			if err != nil {
				report(err)
				continue
			}
			fmt.Fprintln(out, m)
		case line == ":strata":
			printStrata(eng)
		case strings.HasPrefix(line, "assert "):
			update(strings.TrimPrefix(line, "assert "), false)
		case strings.HasPrefix(line, "retract "):
			update(strings.TrimPrefix(line, "retract "), true)
		case strings.HasPrefix(line, ":assert "):
			src := strings.TrimPrefix(line, ":assert ")
			if !strings.HasSuffix(src, ".") {
				src += "."
			}
			if err := eng.AddFacts(src); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		case strings.HasPrefix(line, ":prepare "):
			q := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, ":prepare "), "."))
			p, err := eng.Prepare(q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			prep = p
			fmt.Fprintf(out, "prepared: %s (%d parameter(s); run with :exec)\n", q, p.NumArgs())
		case line == ":exec" || strings.HasPrefix(line, ":exec "):
			if prep == nil {
				fmt.Fprintln(out, "error: no prepared query; use :prepare first")
				continue
			}
			args, err := parseExecArgs(strings.TrimSpace(strings.TrimPrefix(line, ":exec")))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			var ans *ldl1.Answers
			err = interruptible(func(ctx context.Context) error {
				var err error
				ans, err = prep.ExecCtx(ctx, args...)
				return err
			})
			if err != nil {
				report(err)
				continue
			}
			fmt.Fprintln(out, ans)
		case strings.HasPrefix(line, ":explain "):
			fact := strings.TrimSuffix(strings.TrimPrefix(line, ":explain "), ".")
			why, err := eng.Explain(fact)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, why)
		default:
			q := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "?-"), "."))
			var ans *ldl1.Answers
			err := interruptible(func(ctx context.Context) error {
				var err error
				ans, err = eng.QueryCtx(ctx, q)
				return err
			})
			if err != nil {
				report(err)
				continue
			}
			fmt.Fprintln(out, ans)
		}
	}
}
