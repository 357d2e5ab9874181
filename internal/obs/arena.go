package obs

import "time"

// spanSlabSize is the number of Span nodes carved per slab. Span trees
// for one query are ~10 nodes, so one slab covers dozens of queries
// between grows.
const spanSlabSize = 256

// SpanArena is a slab allocator for Span nodes. A streaming campaign
// assembles each query's span tree out of the arena, offers it to the
// sinks (which deep-copy the rare tree they decide to retain — see
// TailSampler.OfferTransient), then calls Reset: the nodes, their Attrs
// arrays and their Children arrays are all reused for the next query.
// Tracing a million queries this way costs a bounded handful of slabs
// instead of a million long-lived heap trees.
//
// Ownership invariants (docs/SCALE.md):
//   - Every *Span returned by NewSpan/Child is owned by the arena and
//     valid only until the next Reset.
//   - A consumer that keeps a span past the fold must Clone it; the
//     clone is plain heap memory with no arena ties.
//   - Reset invalidates every outstanding arena pointer at once; the
//     caller is responsible for sequencing Reset after all consumers
//     of the current tree have returned.
//
// The zero value is ready to use. SpanArena is not safe for concurrent
// use; give each batch's fold its own.
type SpanArena struct {
	slabs [][]Span
	cur   int // slab currently being carved
	used  int // nodes used in slabs[cur]
}

// alloc hands out one recycled node with fields reset and slice
// capacities (Attrs, Children) retained from the node's previous life.
func (a *SpanArena) alloc() *Span {
	if len(a.slabs) == 0 {
		a.slabs = append(a.slabs, make([]Span, spanSlabSize))
	}
	if a.used == len(a.slabs[a.cur]) {
		a.cur++
		if a.cur == len(a.slabs) {
			a.slabs = append(a.slabs, make([]Span, spanSlabSize))
		}
		a.used = 0
	}
	s := &a.slabs[a.cur][a.used]
	a.used++
	s.Name, s.Track = "", ""
	s.Key = ConnKey{}
	s.Start, s.End = 0, 0
	s.Attrs = s.Attrs[:0]
	s.Children = s.Children[:0]
	return s
}

// NewSpan allocates a root span from the arena.
func (a *SpanArena) NewSpan(name, track string, key ConnKey, start, end time.Duration) *Span {
	s := a.alloc()
	s.Name, s.Track, s.Key, s.Start, s.End = name, track, key, start, end
	return s
}

// Child allocates a child of parent from the arena, mirroring
// Span.Child but without a heap allocation.
func (a *SpanArena) Child(parent *Span, name string, start, end time.Duration) *Span {
	c := a.alloc()
	c.Name, c.Track, c.Key, c.Start, c.End = name, parent.Track, parent.Key, start, end
	parent.Children = append(parent.Children, c)
	return c
}

// Reset recycles every node. Outstanding arena pointers become invalid.
func (a *SpanArena) Reset() {
	a.cur, a.used = 0, 0
}

// Cap returns the arena's node capacity (telemetry/testing aid — the
// bounded footprint claim is that Cap stops growing once it covers the
// largest single tree between Resets).
func (a *SpanArena) Cap() int { return len(a.slabs) * spanSlabSize }

// Clone deep-copies a span tree into plain heap memory, sharing nothing
// with the receiver — the retention path for arena-owned trees.
func (s *Span) Clone() *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		Name:  s.Name,
		Track: s.Track,
		Key:   s.Key,
		Start: s.Start,
		End:   s.End,
	}
	if len(s.Attrs) > 0 {
		c.Attrs = append(make([]Attr, 0, len(s.Attrs)), s.Attrs...)
	}
	if len(s.Children) > 0 {
		c.Children = make([]*Span, len(s.Children))
		for i, ch := range s.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}
