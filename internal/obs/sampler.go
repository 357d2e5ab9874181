package obs

import (
	"sort"

	"fesplit/internal/stats"
)

// TailConfig parameterizes a TailSampler.
type TailConfig struct {
	// Percentile of the offered value distribution (typically Tdynamic)
	// beyond which a query's span tree is retained. Default 0.95.
	Percentile float64
	// MaxExemplars caps how many tail exemplars are kept (0 → 64).
	// Bound-violating exemplars are never evicted by the cap: they are
	// the measurement anomalies the whole framework exists to surface.
	MaxExemplars int
}

func (c TailConfig) withDefaults() TailConfig {
	if c.Percentile <= 0 || c.Percentile >= 1 {
		c.Percentile = 0.95
	}
	if c.MaxExemplars <= 0 {
		c.MaxExemplars = 64
	}
	return c
}

// Exemplar is one retained span tree plus the value and verdicts that
// selected it.
type Exemplar struct {
	// Value is the offered selection value in seconds (Tdynamic for the
	// emulator's queries).
	Value float64
	// Violation marks records that broke the Tdelta ≤ Tfetch ≤ Tdynamic
	// inference bound — always retained, never capped.
	Violation bool
	// Span is the query's full causal span tree.
	Span *Span
	// Seq is the offer order, for stable tie-breaking.
	Seq int
}

// TailSampler retains full span trees only for the queries that matter
// at scale: the tail of the offered value distribution and every
// bound-violating record. It replaces all-or-nothing span export — a
// fleet of millions cannot ship every trace, but percentiles plus tail
// exemplars preserve exactly the evidence the paper's analysis needs
// (which queries were slow, and where their time went).
//
// Offer all candidates first, then call Select (or Exemplars/Spans,
// which select lazily): the percentile threshold is a property of the
// whole run's distribution, so selection is two-phase by design. All
// methods are nil-safe; a nil sampler retains nothing.
//
// Memory is bounded whatever the campaign length: the final selection
// never keeps more than MaxExemplars tail spans — always the largest
// values — so the sampler retains only a streaming top-MaxExemplars of
// the non-violation offers, which provably yields the same Select()
// result as retaining every offer, per shard and after
// MergeTailSamplers. Violations are unbounded: they are rare anomalies
// and the framework's raison d'être.
type TailSampler struct {
	cfg    TailConfig
	sketch *stats.Sketch
	// cands holds the non-violation candidates as a min-heap with the
	// *worst* exemplar at the root — smallest value, ties broken toward
	// the larger Seq, mirroring Select's preference for earlier offers
	// — so a better offer evicts the worst in O(log MaxExemplars).
	cands []Exemplar
	// viols holds the bound-violating exemplars, never evicted.
	viols    []Exemplar
	offered  int
	selected []Exemplar
	done     bool
}

// NewTailSampler returns an empty sampler.
func NewTailSampler(cfg TailConfig) *TailSampler {
	cfg = cfg.withDefaults()
	return &TailSampler{cfg: cfg, sketch: stats.NewSketch(stats.DefaultSketchAlpha)}
}

// Config returns the sampler's resolved configuration.
func (t *TailSampler) Config() TailConfig {
	if t == nil {
		return TailConfig{}.withDefaults()
	}
	return t.cfg
}

// Offer presents one completed query: its selection value (seconds)
// and whether it violated the inference bound. The sampler decides
// first whether the exemplar would be retained at all — most are not —
// and calls build for its span tree only on retention, so a rejected
// offer builds nothing. Nil samplers and nil builds are ignored.
func (t *TailSampler) Offer(value float64, violation bool, build func() *Span) {
	if t == nil || build == nil {
		return
	}
	t.sketch.Add(value)
	t.absorb(Exemplar{Value: value, Violation: violation, Seq: t.offered}, build)
	t.offered++
}

// absorb puts an exemplar into the pool — violations always, others
// while the pool has room or by evicting its current worst when they
// beat it — taking its span from build when build is set. A rejected
// exemplar never builds: the bounded pool saves both the tree and the
// retention. MergeTailSamplers calls it directly with spans the shards
// already own (nil build): no sketch add (shard sketches merge
// wholesale) and no offered bump (the merger rebases counts per shard).
func (t *TailSampler) absorb(ex Exemplar, build func() *Span) {
	t.done = false // the threshold moves with every offer, kept or not
	t.selected = nil
	full := len(t.cands) >= t.cfg.MaxExemplars
	if !ex.Violation && full && !worseExemplar(t.cands[0], ex) {
		return
	}
	if build != nil {
		ex.Span = build()
	}
	switch {
	case ex.Violation:
		t.viols = append(t.viols, ex)
	case !full:
		t.cands = append(t.cands, ex)
		t.siftUp(len(t.cands) - 1)
	default:
		t.cands[0] = ex
		t.siftDown(0)
	}
}

// worseExemplar reports whether a ranks strictly worse than b for tail
// retention: smaller value loses; on equal values the later offer
// loses, matching Select's smaller-Seq tie-break.
func worseExemplar(a, b Exemplar) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Seq > b.Seq
}

func (t *TailSampler) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseExemplar(t.cands[i], t.cands[p]) {
			return
		}
		t.cands[i], t.cands[p] = t.cands[p], t.cands[i]
		i = p
	}
}

func (t *TailSampler) siftDown(i int) {
	n := len(t.cands)
	for {
		worst := i
		if l := 2*i + 1; l < n && worseExemplar(t.cands[l], t.cands[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && worseExemplar(t.cands[r], t.cands[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.cands[i], t.cands[worst] = t.cands[worst], t.cands[i]
		i = worst
	}
}

// Offered returns how many candidates have been offered (including
// those the pool has since evicted).
func (t *TailSampler) Offered() int {
	if t == nil {
		return 0
	}
	return t.offered
}

// Threshold returns the current selection threshold: the configured
// percentile of every value offered so far (0 when nothing offered).
func (t *TailSampler) Threshold() float64 {
	if t == nil {
		return 0
	}
	return t.sketch.Quantile(t.cfg.Percentile)
}

// Select computes the retained exemplar set: every violation, plus
// tail candidates at or above the percentile threshold, capped at
// MaxExemplars with the largest values winning (ties broken by offer
// order). The result is sorted by offer order so exports follow
// simulation time. Select is idempotent until the next offer.
func (t *TailSampler) Select() []Exemplar {
	if t == nil {
		return nil
	}
	if t.done {
		return t.selected
	}
	thr := t.Threshold()
	var tail, kept []Exemplar
	kept = append(kept, t.viols...)
	for _, c := range t.cands {
		if c.Value >= thr {
			tail = append(tail, c)
		}
	}
	if budget := t.cfg.MaxExemplars - len(kept); len(tail) > budget {
		if budget < 0 {
			budget = 0
		}
		sort.SliceStable(tail, func(i, j int) bool {
			if tail[i].Value != tail[j].Value {
				return tail[i].Value > tail[j].Value
			}
			return tail[i].Seq < tail[j].Seq
		})
		tail = tail[:budget]
	}
	kept = append(kept, tail...)
	sort.Slice(kept, func(i, j int) bool { return kept[i].Seq < kept[j].Seq })
	t.selected = kept
	t.done = true
	return kept
}
