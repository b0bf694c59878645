package hdc

import "fmt"

// Query is an encoded query made ready to score against the class rows of a
// model whose elements lie in the signed range of bw bits. NewQuery reads
// the query once to choose the dot kernel: when bw ≤ 16 and the query's
// elements lie within ±(2^15 − 1), both factors of every product fit 16 bits
// and the AVX2 path multiplies on 16-bit lanes, adding a bounded number of
// exact 32-bit products per lane before it widens into int64 (laneBlock).
// Otherwise, and off amd64, Dot is Vec.Dot's kernel. Both return dotRef's
// sum.
type Query struct {
	v     Vec
	block int // products per 32-bit lane between widenings; 0 selects dot
}

// NewQuery prepares v for scoring against rows of bw-bit elements. The
// query keeps v, which must not change while the query is used. The caller
// guarantees the rows' bound: a row element outside bw bits makes Dot
// wrong, not slow.
//
//generic:hotpath
func NewQuery(v Vec, bw int) Query {
	return Query{v: v, block: laneBlock(v, bw)}
}

// Dot returns the exact dot product of the query and the first len(v)
// elements of c, which must have at least that many.
//
//generic:hotpath
func (q Query) Dot(c Vec) int64 {
	if len(c) < len(q.v) {
		panic(fmt.Sprintf("hdc: Query.Dot row length %d shorter than the query's %d", len(c), len(q.v)))
	}
	if q.block > 0 {
		return dotLanes(q.v, c, q.block)
	}
	return dot(q.v, c)
}
