package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// unescapeLabel inverts escapeLabel, failing on truncated escapes.
func unescapeLabel(t *testing.T, v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' {
			b.WriteByte(v[i])
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("dangling backslash in %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case '"':
			b.WriteByte('"')
		default:
			t.Fatalf("unknown escape \\%c in %q", v[i], v)
		}
	}
	return b.String()
}

// FuzzPrometheusLabelEscape feeds arbitrary label values through the
// exposition writer and checks the escaping round-trips: the emitted
// line stays single-line, and unescaping the quoted value recovers the
// original bytes.
func FuzzPrometheusLabelEscape(f *testing.F) {
	f.Add("plain")
	f.Add(`back\slash`)
	f.Add("new\nline")
	f.Add(`quo"te`)
	f.Add(`all\"three` + "\n" + `of\\them`)
	f.Add("")
	f.Add("\x00\x1f\xff")
	f.Fuzz(func(t *testing.T, label string) {
		r := NewRegistry()
		r.GaugeVec("fuzz_gauge", "", "l").With(label).Set(1)
		var b strings.Builder
		if err := WritePrometheus(&b, r); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		// One TYPE header plus exactly one series line: escaped newlines
		// must not produce extra physical lines.
		if len(lines) != 2 {
			t.Fatalf("label %q produced %d lines:\n%s", label, len(lines), out)
		}
		series := lines[1]
		const prefix = `fuzz_gauge{l="`
		if !strings.HasPrefix(series, prefix) {
			t.Fatalf("malformed series line %q", series)
		}
		const suffix = `"} 1`
		if !strings.HasSuffix(series, suffix) {
			t.Fatalf("series line %q does not end with %q", series, suffix)
		}
		escaped := series[len(prefix) : len(series)-len(suffix)]
		// The registry coerces label values to valid UTF-8 on first use, so
		// the round-trip target is the coerced value, not the raw input.
		want := strings.ToValidUTF8(label, "�")
		if got := unescapeLabel(t, escaped); got != want {
			t.Fatalf("escape round-trip: %q → %q → %q, want %q", label, escaped, got, want)
		}
	})
}

// requireDumpFixpoint dumps r, reads the dump back and requires the
// reconstructed registry to export exactly what r did, as JSONL and as
// the Prometheus view (quantiles recompute from restored sketch state).
func requireDumpFixpoint(t *testing.T, r *Registry) {
	t.Helper()
	var first, second bytes.Buffer
	var p1, p2 strings.Builder
	if err := WriteMetricsJSONL(&first, r); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&p1, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMetricsJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, first.String())
	}
	if err := WriteMetricsJSONL(&second, back); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&p2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("jsonl round-trip not a fixpoint:\n--- first\n%s--- second\n%s",
			first.String(), second.String())
	}
	if p1.String() != p2.String() {
		t.Fatalf("prometheus view changed across jsonl round-trip:\n--- first\n%s--- second\n%s",
			p1.String(), p2.String())
	}
}

// FuzzMetricsJSONLRoundTrip drives the labeled-series JSONL dump
// through write → read → write and requires a byte-exact fixpoint: the
// reconstructed registry must export exactly what the original did,
// whatever bytes land in the label values.
func FuzzMetricsJSONLRoundTrip(f *testing.F) {
	f.Add("fe-chicago", "google", 12.5, uint(40))
	f.Add("", "\x1f", -3.25, uint(0))
	f.Add("a\nb", `c"d\e`, 1e-12, uint(7))
	f.Add("同", "🚀", 1e9, uint(3))
	f.Fuzz(func(t *testing.T, l1, l2 string, v float64, n uint) {
		r := NewRegistry()
		r.CounterVec("fz_total", "c", "site", "svc").With(l1, l2).Add(v)
		r.GaugeVec("fz_depth", "g", "site").With(l1).Set(v)
		sk := r.SketchVec("fz_quant", "s", 0.02, "site", "svc").With(l1, l2)
		for i := uint(0); i < n%64; i++ {
			sk.Observe(v + float64(i))
		}
		requireDumpFixpoint(t, r)
	})
}

// FuzzReadMetricsJSONL feeds arbitrary bytes to the dump reader — the
// file `fesplit diff` opens from a path the user names. It must return
// an error, or a registry whose own dump reads back to the same dump
// and the same Prometheus view; it must never panic.
func FuzzReadMetricsJSONL(f *testing.F) {
	// One line of each kind from a seed-42 study's metrics.jsonl.
	f.Add([]byte(`{"name":"tcp_rtos_total","kind":"counter","help":"retransmission-timeout expiries","value":88}`))
	f.Add([]byte(`{"name":"fe_pool_in_use","kind":"gauge","help":"BE-fetch pool slots currently occupied","label_names":["fe","site"],"label_values":["bing-like-fe-metro-miami","metro-miami"],"value":0,"max":3}`))
	f.Add([]byte(`{"name":"vantage_overall_seconds","kind":"summary","help":"overall query delay by vantage node","label_names":["service","vantage"],"label_values":["google-like","node-019"],"alpha":0.01,"zero":0,"sum":2.55236773,"min":0.423269461,"max":0.427682372,"bucket_idx":[-42],"bucket_n":[6]}`))
	for _, row := range rejectRows {
		f.Add([]byte(row.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		reg, err := ReadMetricsJSONL(bytes.NewReader(in))
		if err != nil {
			if reg != nil {
				t.Fatalf("rejected dump (%v) still returned a registry", err)
			}
			return
		}
		requireDumpFixpoint(t, reg)
	})
}

// FuzzJSONString holds the exporters' string encoder to encoding/json:
// whatever the bytes, appendJSONString appends exactly what
// json.Marshal renders for the string coerced to valid UTF-8, and
// leaves what the buffer held before it alone.
func FuzzJSONString(f *testing.F) {
	for _, s := range []string{"fe-chicago", "", "a<b", "a>b", "a&b", `a"b`, `a\b`, "\x00", "\n", "\x1f", "\x7f", "\u2028\u2029", "\xff\xc3(", "同🚀"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(strings.ToValidUTF8(s, "\uFFFD"))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("{"), s); string(got) != "{"+string(want) {
			t.Fatalf("%q: appended %s, want {%s", s, got, want)
		}
	})
}
