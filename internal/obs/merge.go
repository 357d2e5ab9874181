package obs

import "fmt"

// Merge folds every family and series of src into r. It is the
// registry half of the shard-merge contract (see internal/shard):
// each shard of a parallel campaign records into its own registry, and
// the coordinator merges them back in canonical shard order.
//
// Per-kind semantics are chosen so that merging per-shard registries
// reproduces what one registry would have recorded serially:
//
//   - counters add;
//   - gauges keep the larger of the two current values, and the larger
//     of the two historical maxima — the only commutative reading of
//     "last value" that is independent of shard order (the study's
//     gauges are all high-water marks, where max is the meaning);
//   - sketches merge via stats.Sketch.Merge, which is exact for bucket
//     counts and order-independent up to float rounding of Sum.
//
// Schema collisions (same family name, different kind/labels/
// accuracy/help) return an error naming the family and both
// registration sites rather than panicking: during a merge the two
// sites are in different shards and the caller — not the programmer at
// a registration site — must decide what to do. src families and
// series are visited in sorted order, so any cardinality-cap overflow
// in r collapses identically on every run. A nil src (or nil r with
// nil src) is a no-op; merging into a nil registry with a non-nil src
// is an error because the data would be silently dropped.
func (r *Registry) Merge(src *Registry) error {
	if src == nil {
		return nil
	}
	if r == nil {
		return fmt.Errorf("obs: merge into nil registry")
	}
	for _, sf := range src.Families() {
		df, ok := r.families[sf.Name]
		if !ok {
			df = &Family{
				Name:   sf.Name,
				Help:   sf.Help,
				Kind:   sf.Kind,
				labels: sf.labels,
				alpha:  sf.alpha,
				limit:  sf.limit,
				site:   sf.site,
				kids:   make(map[string]*series),
			}
			r.families[sf.Name] = df
		} else if m := df.schemaMismatch(sf.Help, sf.Kind, sf.labels, sf.alpha); m != "" {
			return fmt.Errorf("obs: merge of metric %q: different %s (registered at %s vs %s)",
				sf.Name, m, df.site, sf.site)
		}
		for _, sv := range sf.Series() {
			ds := df.child(sv.LabelValues)
			switch sf.Kind {
			case KindCounter:
				ds.counter.Add(sv.Counter.Value())
			case KindGauge:
				if sv.Gauge.v > ds.gauge.v {
					ds.gauge.v = sv.Gauge.v
				}
				if sv.Gauge.max > ds.gauge.max {
					ds.gauge.max = sv.Gauge.max
				}
			case KindSketch:
				ds.sketch.sk.Merge(sv.Sketch.sk)
			}
		}
	}
	return nil
}

// MergeTailSamplers joins per-shard tail samplers into one sampler
// whose selection behaves as if every query had been offered to a
// single sampler: the threshold sketch is the merge of the shard
// sketches (so the percentile cut is fleet-wide, not per-shard), and
// the candidate pool is the union of the shard pools in argument order
// with sequence numbers rebased into disjoint per-shard ranges, so
// Select re-ranks the union — a span that was shard-local tail but
// falls below the fleet-wide threshold is dropped, exactly as it would
// have been in a serial run. The argument order is the canonical shard
// order; callers must pass shards in it. Configuration comes from the
// first non-nil sampler; nil samplers are skipped. With no non-nil
// arguments the result is an empty sampler with default config.
//
// The bounded shard pools merge exactly: each shard's pool is its
// top-MaxExemplars by value, a superset of anything the merged Select
// can keep from that shard, and the merged sampler re-applies the same
// bound while absorbing.
func MergeTailSamplers(ss ...*TailSampler) *TailSampler {
	var out *TailSampler
	for _, s := range ss {
		if s == nil {
			continue
		}
		if out == nil {
			out = NewTailSampler(s.cfg)
		}
		out.sketch.Merge(s.sketch)
		base := out.offered
		for _, c := range s.viols {
			c.Seq += base
			out.absorb(c, nil)
		}
		for _, c := range s.cands {
			c.Seq += base
			out.absorb(c, nil)
		}
		out.offered = base + s.offered
	}
	if out == nil {
		out = NewTailSampler(TailConfig{})
	}
	return out
}
