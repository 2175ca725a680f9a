// Reference routing implementation: the original string-keyed BFS,
// retired from the hot path when validate() began interning labels into
// dense int ids (intern.go). It survives for the same reason
// pisa.Reference does — differential tests hold the interned fast path
// bit-identical to it, and E17's route-build speedup column measures
// against it honestly instead of against a remembered number.
package and

import "sort"

// distancesReference is the pre-interning Distances: a map-keyed BFS
// that copies and sorts the adjacency list on every pop.
func (n *Network) distancesReference(src string, avoid map[string]bool) map[string]int {
	dist := map[string]int{src: 0}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		nbs := append([]string(nil), n.adj[cur]...)
		sort.Strings(nbs)
		for _, nb := range nbs {
			if avoid[nb] {
				continue
			}
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// nextHopsTowardReference is the pre-interning NextHopsToward.
func (n *Network) nextHopsTowardReference(dst string, avoid map[string]bool) map[string][]string {
	if avoid[dst] {
		avoid2 := make(map[string]bool, len(avoid))
		for k, v := range avoid {
			avoid2[k] = v
		}
		delete(avoid2, dst)
		avoid = avoid2
	}
	dist := n.distancesReference(dst, avoid)
	out := map[string][]string{}
	for _, node := range n.Nodes {
		if node.Label == dst || avoid[node.Label] {
			continue
		}
		d, ok := dist[node.Label]
		if !ok {
			continue
		}
		var hops []string
		for _, nb := range n.adj[node.Label] {
			if nd, ok := dist[nb]; ok && nd == d-1 {
				hops = append(hops, nb)
			}
		}
		sort.Strings(hops)
		hops = dedupSorted(hops)
		if len(hops) > 0 {
			out[node.Label] = hops
		}
	}
	return out
}

// NextHopsAllReference computes the full ECMP table with the original
// string-keyed algorithm: one map-BFS per destination, adjacency copied
// and sorted per pop. Quadratic-with-large-constants at fat-tree scale —
// exactly why it was replaced — but its output is the semantic contract
// the interned implementation must reproduce exactly. Tests and
// internal/bench only: scripts/check.sh fails the build if anything else
// calls it.
func (n *Network) NextHopsAllReference() map[string]map[string][]string {
	out := map[string]map[string][]string{}
	for _, src := range n.Nodes {
		out[src.Label] = map[string][]string{}
	}
	for _, dst := range n.Nodes {
		for src, hops := range n.nextHopsTowardReference(dst.Label, nil) {
			out[src][dst.Label] = hops
		}
	}
	return out
}

// dedupSorted removes adjacent duplicates (parallel links produce
// duplicate adjacency entries).
func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
