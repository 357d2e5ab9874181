package emulator

import (
	"strings"
	"time"

	"fesplit/internal/frontend"
	"fesplit/internal/vantage"
	"fesplit/internal/workload"
)

// Interactive reproduces the Discussion-section (Section 6) experiment
// on the "search as you type" feature: after each letter the user
// types, a separate query goes to the FE server on a fresh TCP
// connection. The paper's observation is that every per-keystroke query
// still fits the basic split-TCP model; this harness emits one Record
// per keystroke so the standard analysis applies unchanged.
//
// Prefix queries are shorter (fewer terms), so the back-end cost model
// naturally charges them less — the paper's speculation that
// "processing times are generally reduced because subsequent queries
// are highly correlated" emerges from term-count scaling.
func (r *Runner) Interactive(fe *frontend.Server, node vantage.Node,
	keywords string, keystrokeGap time.Duration) *Dataset {
	ds := r.newDataset("interactive")
	full := []rune(keywords)
	at := time.Duration(0)
	for i := 1; i <= len(full); i++ {
		prefix := strings.TrimSpace(string(full[:i]))
		if prefix == "" {
			continue
		}
		q := workload.Query{
			ID:       i,
			Class:    workload.ClassGranular,
			Keywords: prefix,
			Terms:    len(strings.Fields(prefix)),
			Rank:     workload.NumRanks - 1, // interactive prefixes: no popularity discount
		}
		r.issueAt(ds, at, node, fe, q)
		at += keystrokeGap
	}
	return r.finalize(ds)
}

// --- convenience used by tests and the report ---

// IssueOnce submits a single ad-hoc query outside the experiment
// harness; the Record lands in the returned single-record dataset.
func (r *Runner) IssueOnce(fe *frontend.Server, node vantage.Node, q workload.Query) *Dataset {
	ds := r.newDataset("adhoc")
	r.issueAt(ds, 0, node, fe, q)
	return r.finalize(ds)
}
