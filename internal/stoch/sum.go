package stoch

import "hdface/internal/hv"

// WeightedSum returns a hypervector representing the convex combination
// sum_i (w_i / W) * a_i where W = sum_i w_i and all weights are
// non-negative (negative-weight terms are expressed by negating the
// operand first). The combination is built as a balanced tree of pairwise
// weighted averages, which keeps the compounded selection noise O(1/D)
// regardless of fan-in — the same construction the hyperspace HOG uses for
// histogram means.
//
// It panics on empty input, negative weights, or an all-zero weight sum.
func (c *Codec) WeightedSum(vs []*hv.Vector, ws []float64) *hv.Vector {
	if len(vs) == 0 || len(vs) != len(ws) {
		panic("stoch: WeightedSum needs matching non-empty vectors and weights")
	}
	type node struct {
		v *hv.Vector
		w float64
	}
	nodes := make([]node, 0, len(vs))
	var total float64
	for i, v := range vs {
		if ws[i] < 0 {
			panic("stoch: WeightedSum weights must be non-negative")
		}
		if ws[i] == 0 {
			continue
		}
		nodes = append(nodes, node{v, ws[i]})
		total += ws[i]
	}
	if total == 0 {
		panic("stoch: WeightedSum weights sum to zero")
	}
	for len(nodes) > 1 {
		next := nodes[:0]
		for i := 0; i+1 < len(nodes); i += 2 {
			a, b := nodes[i], nodes[i+1]
			p := a.w / (a.w + b.w)
			next = append(next, node{c.WeightedAvg(p, a.v, b.v), a.w + b.w})
		}
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	return nodes[0].v
}
