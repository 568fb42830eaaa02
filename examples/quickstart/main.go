// Quickstart: the classical ancestor program of §1 of the LDL1 paper,
// evaluated bottom-up, plus a stratified-negation query.
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"strings"

	"ldl1"
)

func main() {
	eng, err := ldl1.New(`
		% ancestor: transitive closure of parent (§1)
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).

		% exclusive ancestors: all (X, Y, Z) where X is an ancestor of Y
		% but not of Z (§1, written safely with a person domain)
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).

		parent(abe, bob).  parent(abe, beth).
		parent(bob, carl). parent(beth, cora).
		parent(carl, dee).
		person(abe). person(bob). person(beth). person(carl).
		person(cora). person(dee).
	`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Who are abe's descendants?")
	ans, err := eng.Query("ancestor(abe, W)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans)

	fmt.Println("\nIs bob an ancestor of dee?")
	yn, err := eng.Query("ancestor(bob, dee)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(yn)

	fmt.Println("\nOf whom is carl an ancestor, while not being one of cora?")
	ex, err := eng.Query("excl_ancestor(carl, Y, cora)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ex)

	fmt.Println("\nPredicate layering (§3.1):")
	strata := eng.Strata()
	preds := make([]string, 0, len(strata))
	for pred := range strata {
		preds = append(preds, pred)
	}
	slices.SortFunc(preds, func(a, b string) int {
		return cmp.Or(cmp.Compare(strata[a], strata[b]), strings.Compare(a, b))
	})
	for _, pred := range preds {
		fmt.Printf("  %-14s layer %d\n", pred, strata[pred])
	}
}
