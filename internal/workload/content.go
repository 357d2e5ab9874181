package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"fesplit/internal/stats"
)

// ContentSpec parameterizes search-result synthesis for one service.
// Sizes reflect 2011-era result pages: a few KB of static boilerplate
// and tens of KB of dynamic results.
type ContentSpec struct {
	// ServiceName brands the static portion (it must be identical for
	// every query to the same service, and differ across services).
	ServiceName string
	// StaticSize is the exact byte length of the static prefix.
	StaticSize int
	// DynamicBase is the base byte length of the dynamic portion.
	DynamicBase int
	// DynamicPerTerm adds bytes per query term (refined queries return
	// richer snippets).
	DynamicPerTerm int
}

// DefaultContentSpec mirrors measured 2011 SERP proportions.
func DefaultContentSpec(service string) ContentSpec {
	return ContentSpec{
		ServiceName:    service,
		StaticSize:     8 << 10,  // 8 KB: HTTP+HTML headers, CSS, menu bar
		DynamicBase:    20 << 10, // 20 KB: results + ads
		DynamicPerTerm: 512,
	}
}

// StaticPrefix returns the service's static content portion. It is a
// pure function of the spec — identical for every query — so the
// analyzer's longest-common-prefix content analysis identifies it, just
// as the paper's cross-keyword content comparison did. The prefix
// contains the recognizable boilerplate the paper names: HTML header,
// CSS styles, and the static menu bar ("Videos, News, Shopping...").
func (s ContentSpec) StaticPrefix() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html>\n<head>\n<title>%s search</title>\n", s.ServiceName)
	b.WriteString("<style>\nbody{font:13px arial}#menu{background:#eee}.res{margin:6px}\n")
	b.WriteString(".ad{color:#060}.url{color:#093}\n</style>\n</head>\n<body>\n")
	b.WriteString(`<div id="menu">Web | Videos | News | Shopping | Images | Maps | More</div>` + "\n")
	fmt.Fprintf(&b, `<div id="logo" service=%q>`, s.ServiceName)
	b.WriteString("\n<!-- static-cache-boundary padding: ")
	// Deterministic filler to hit StaticSize exactly.
	const filler = "abcdefghijklmnopqrstuvwxyz0123456789"
	for b.Len() < s.StaticSize-4 {
		n := s.StaticSize - 4 - b.Len()
		if n > len(filler) {
			n = len(filler)
		}
		b.WriteString(filler[:n])
	}
	b.WriteString(" -->\n")
	out := b.Bytes()
	if len(out) > s.StaticSize {
		out = out[:s.StaticSize]
	}
	return out
}

// The literal pieces of a dynamic body. DynamicBody appends them and
// DynamicLen measures them, so the two cannot drift apart.
const (
	dynMenuOpen  = `<div id="dynmenu">related: `
	dynMenuMid   = ` images, `
	dynMenuClose = " news</div>\n"
	dynAdOpen    = `<div class="ad">Ad `
	dynAdBuy     = ` — buy `
	dynAdLink    = ` now! sponsored-link-`
	dynAdClose   = "</div>\n"
	dynResOpen   = `<div class="res"><a href="http://example-`
	dynResOrg    = `.org/`
	dynResQuote  = `">`
	dynResTitle  = ` — result `
	dynResURL    = `</a><span class="url">example-`
	dynResAbout  = `.org</span><p>snippet about `
	dynResClose  = "</p></div>\n"
	dynTailOpen  = "</div>\n</body>\n</html>\n<!-- qid="
	dynTailClose = " -->"
)

// DynamicBody synthesizes the query-dependent portion: dynamic menu
// entries, search results and ads. The rng makes ad blocks and snippet
// lengths vary run to run (deterministically per seed); the keyword
// string appears throughout, so no two distinct queries share a body.
func (s ContentSpec) DynamicBody(q Query, rng *rand.Rand) []byte {
	target := s.DynamicSize(q)
	// Bodies are built with plain appends into one pre-sized slice: a
	// fmt.Fprintf per result line boxes every integer argument, and at
	// tens of thousands of bodies per study that dominated the allocation
	// profile. Output bytes and rng call order are unchanged (the
	// differential workload test pins both against a fmt reference).
	b := make([]byte, 0, target+512)
	b = append(b, dynMenuOpen...)
	b = append(b, q.Keywords...)
	b = append(b, dynMenuMid...)
	b = append(b, q.Keywords...)
	b = append(b, dynMenuClose...)
	i := 0
	for len(b) < target-128 {
		i++
		if rng.Float64() < 0.15 {
			b = append(b, dynAdOpen...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, dynAdBuy...)
			b = append(b, q.Keywords...)
			b = append(b, dynAdLink...)
			b = appendPad6(b, rng.Intn(1e6))
			b = append(b, dynAdClose...)
			continue
		}
		b = append(b, dynResOpen...)
		b = appendPad6(b, rng.Intn(1e6))
		b = append(b, dynResOrg...)
		b = strconv.AppendInt(b, int64(q.ID), 10)
		b = append(b, dynResQuote...)
		b = append(b, q.Keywords...)
		b = append(b, dynResTitle...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, dynResURL...)
		b = appendPad6(b, rng.Intn(1e6))
		b = append(b, dynResAbout...)
		b = append(b, q.Keywords...)
		// Variable-length snippet filler.
		n := 40 + rng.Intn(120)
		for j := 0; j < n; j++ {
			b = append(b, byte('a'+(i+j)%26))
		}
		b = append(b, dynResClose...)
	}
	b = append(b, dynTailOpen...)
	b = strconv.AppendInt(b, int64(q.ID), 10)
	b = append(b, dynTailClose...)
	return b
}

// DynamicLen returns len(DynamicBody(q, rng)) without building the
// body, for worlds that carry response lengths only. It makes the same
// rng draws in the same order, so a generator shared with other models
// (the back end's cost and load processes) ends in the same state
// either way.
func (s ContentSpec) DynamicLen(q Query, rng *rand.Rand) int {
	target := s.DynamicSize(q)
	kw, id := len(q.Keywords), decLen(q.ID)
	n := len(dynMenuOpen) + kw + len(dynMenuMid) + kw + len(dynMenuClose)
	i := 0
	for n < target-128 {
		i++
		if rng.Float64() < 0.15 {
			rng.Intn(1e6)
			n += len(dynAdOpen) + decLen(i) + len(dynAdBuy) + kw + len(dynAdLink) + 6 + len(dynAdClose)
			continue
		}
		rng.Intn(1e6)
		rng.Intn(1e6)
		n += len(dynResOpen) + 6 + len(dynResOrg) + id + len(dynResQuote) + kw +
			len(dynResTitle) + decLen(i) + len(dynResURL) + 6 + len(dynResAbout) + kw +
			40 + rng.Intn(120) + len(dynResClose)
	}
	return n + len(dynTailOpen) + id + len(dynTailClose)
}

// decLen is the number of bytes strconv.AppendInt(nil, v, 10) produces.
func decLen(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// appendPad6 appends v zero-padded to six digits — the %06d of the
// sponsored-link and example-host IDs, which are always drawn from
// [0, 1e6).
func appendPad6(b []byte, v int) []byte {
	return append(b,
		byte('0'+v/100000%10), byte('0'+v/10000%10), byte('0'+v/1000%10),
		byte('0'+v/100%10), byte('0'+v/10%10), byte('0'+v%10))
}

// DynamicSize returns the target dynamic-portion size for a query.
func (s ContentSpec) DynamicSize(q Query) int {
	return s.DynamicBase + s.DynamicPerTerm*q.Terms
}

// CostModel maps a query to back-end processing time — the paper's
// T_proc, the dominant component of the FE-BE fetch time that Section 5
// estimates via the regression intercept.
type CostModel struct {
	// Base is the floor processing time of any query.
	Base time.Duration
	// PerTerm adds cost per query term (complex queries cost more).
	PerTerm time.Duration
	// PopularDiscount scales cost for head-of-Zipf queries whose
	// results the back-end index serves from warm internal caches
	// (NOT the FE result cache — the paper shows FEs don't cache
	// results). 1.0 disables the effect.
	PopularDiscount float64
	// CV is the coefficient of variation of the lognormal noise on
	// each sample: Bing's fetch times are "larger and show higher
	// variability", Google's "smaller and more stable".
	CV float64
	// LoadAmplitude scales a slowly-varying AR(1) load term added
	// multiplicatively: 0.2 means ±~20% swings.
	LoadAmplitude float64
}

// Sample draws the processing time of one query. load should be the
// current value of the data center's AR(1) load process in [-1, 1]-ish
// range (pass 0 for an unloaded BE).
func (m CostModel) Sample(q Query, load float64, rng *rand.Rand) time.Duration {
	mean := float64(m.Base) + float64(m.PerTerm)*float64(q.Terms)
	if m.PopularDiscount > 0 && m.PopularDiscount < 1 && q.Rank < NumRanks/100 {
		mean *= m.PopularDiscount
	}
	mean *= 1 + m.LoadAmplitude*load
	if mean < float64(time.Millisecond) {
		mean = float64(time.Millisecond)
	}
	if m.CV <= 0 {
		return time.Duration(mean)
	}
	ln := stats.LogNormalFromMeanCV(mean, m.CV)
	return time.Duration(ln.Draw(rng))
}
