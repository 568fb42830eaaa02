package ldl1_test

import (
	"fmt"
	"log"

	"ldl1"
)

func Example() {
	eng, err := ldl1.New(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		parent(abe, bob). parent(bob, carl).
	`)
	if err != nil {
		log.Fatal(err)
	}
	ans, err := eng.Query("ancestor(abe, W)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ans)
	// Output:
	// W = bob
	// W = carl
}

// An answer's rows are read in place: Len of them, each one term per
// entry of Vars.
func ExampleAnswers_Row() {
	eng, _ := ldl1.New(`parent(abe, bob). parent(abe, carl). parent(bob, dan).`)
	ans, _ := eng.Query("parent(P, C)")
	for i := range ans.Len() {
		row := ans.Row(i)
		fmt.Println(ans.Vars[0], "=", row[0], "/", ans.Vars[1], "=", row[1])
	}
	// Output:
	// P = abe / C = bob
	// P = abe / C = carl
	// P = bob / C = dan
}

func ExampleEngine_Query_grouping() {
	eng, _ := ldl1.New(`
		sp(s1, p1). sp(s1, p2). sp(s2, p1).
		supplies(S, <P>) <- sp(S, P).
	`)
	ans, _ := eng.Query("supplies(s1, Parts)")
	fmt.Println(ans)
	// Output:
	// Parts = {p1, p2}
}

func ExampleEngine_Query_sets() {
	eng, _ := ldl1.New(`
		s({1, 2, 3}).
		halves(A, B) <- s(S), partition(S, A, B), member(1, A).
	`)
	ans, _ := eng.Query("halves(A, B)")
	fmt.Println(ans)
	// partition enumerates splits into two non-empty disjoint parts.
	// Output:
	// A = {1}, B = {2, 3}
	// A = {1, 2}, B = {3}
	// A = {1, 3}, B = {2}
}

func ExampleEngine_Explain() {
	eng, _ := ldl1.New(`
		path(X, Y) <- edge(X, Y).
		path(X, Y) <- edge(X, Z), path(Z, Y).
		edge(a, b). edge(b, c).
	`)
	why, _ := eng.Explain("path(a, c)")
	fmt.Println(why)
	// Output:
	// path(a, c)   [by path(X, Y) <- edge(X, Z), path(Z, Y).]
	//   edge(a, b).   [fact]
	//   path(b, c)   [by path(X, Y) <- edge(X, Y).]
	//     edge(b, c).   [fact]
}

func ExampleEngine_Run() {
	eng, _ := ldl1.New(`
		odd(X) <- num(X), not even(X).
		even(2). even(4).
		num(1). num(2). num(3).
	`)
	m, _ := eng.Run()
	for _, f := range m.Facts("odd") {
		fmt.Println(f)
	}
	// Output:
	// odd(1)
	// odd(3)
}

func ExampleWithMagic() {
	eng, _ := ldl1.New(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c). par(x, y).
	`, ldl1.WithMagic(true))
	ans, _ := eng.Query("anc(a, W)")
	fmt.Println(ans)
	// Output:
	// W = b
	// W = c
}
