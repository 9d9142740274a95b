package main

import (
	"math"

	pn "probnucleus"
)

// digest is a 64-bit FNV-1a hash over a response's contents. It is computed
// outside the timed call and allocates nothing, so checking every response
// adds no latency and no allocation to what a run measures.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d *digest) word(x uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(byte(x >> (8 * i)))
		*d *= fnvPrime
	}
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

func (d *digest) tri(t pn.Triangle) {
	d.word(uint64(uint32(t.A)) | uint64(uint32(t.B))<<32)
	d.word(uint64(uint32(t.C)))
}

// digestLocal covers θ and every triangle's nucleusness, in index order.
func digestLocal(r *pn.LocalResult) digest {
	d := newDigest()
	d.float(r.Theta)
	d.word(uint64(len(r.Nucleusness)))
	for i, t := range r.TI.Tris {
		d.tri(t)
		d.word(uint64(r.Nucleusness[i]))
	}
	return d
}

// digestNuclei covers every nucleus field, including the Monte-Carlo
// estimate MinProb bit for bit.
func digestNuclei(ns []pn.ProbNucleus) digest {
	d := newDigest()
	d.word(uint64(len(ns)))
	for _, n := range ns {
		d.word(uint64(n.K))
		d.float(n.Theta)
		d.float(n.MinProb)
		d.word(uint64(len(n.Triangles)))
		for _, t := range n.Triangles {
			d.tri(t)
		}
		d.word(uint64(len(n.Vertices)))
		for _, v := range n.Vertices {
			d.word(uint64(uint32(v)))
		}
		d.word(uint64(len(n.Edges)))
		for _, e := range n.Edges {
			d.word(uint64(uint32(e.U)) | uint64(uint32(e.V))<<32)
		}
	}
	return d
}
