package main

import "math/bits"

// The oracle: what every read must return on the unmodified tree, from
// arithmetic on heap numbering alone — no evaluator involved.

// level is the depth of node i (root n1 is level 0).
func level(node int) int { return bits.Len(uint(node)) - 1 }

// wantRows is the number of answer rows of a read on the unmodified tree
// of the given depth.
func wantRows(s shape, node, depth int) int {
	d := level(node)
	switch s {
	case shapeDesc: // descendants: a full subtree below, minus the node
		return 1<<(depth-d+1) - 2
	case shapeAnc: // one ancestor per level above
		return d
	case shapeSG: // everyone else on the level
		return 1<<d - 1
	case shapeYoung: // one grouped row, for childless nodes with company
		if d == depth && depth > 0 {
			return 1
		}
		return 0
	case shapeKids: // one grouped row, for nodes with children
		if d < depth {
			return 1
		}
		return 0
	}
	panic("unknown shape")
}

// treeModelFacts is the size of the minimal model of the tree program.
func treeModelFacts(depth int) int {
	n := treeNodes(depth)
	total := 2 * (n - 1) // p and siblings
	for node := 1; node <= n; node++ {
		total += wantRows(shapeAnc, node, depth) // a, counted at the descendant
		total += wantRows(shapeSG, node, depth)
		total += wantRows(shapeYoung, node, depth)
		total += wantRows(shapeKids, node, depth) * 2 // kids and hasdesc
	}
	return total
}
