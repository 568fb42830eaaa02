package layering

import "sort"

// tarjan computes the strongly connected components of graph, each sorted,
// in Tarjan emission order: every component after all those it has edges
// into, so dependencies first, as edges run head → body predicate.
func tarjan(graph map[string][]DepEdge) [][]string {
	preds := make([]string, 0, len(graph))
	for p := range graph {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	counter := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range graph[v] {
			w := e.To
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			out = append(out, scc)
		}
	}
	for _, p := range preds {
		if _, seen := index[p]; !seen {
			strongconnect(p)
		}
	}
	return out
}
