package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTestTrace assembles a two-query tracer resembling the
// emulator's output after critical-path annotation: client-side phases
// on the node track, the FE fetch (with its BE link attribution) on
// the FE track, and the cp:* waterfall segments on the critpath track
// (the shapes internal/obs/critpath.Annotate produces — built by hand
// here because obs cannot import critpath from an in-package test).
func buildTestTrace() *Tracer {
	tr := NewTracer()
	for q := 0; q < 2; q++ {
		base := time.Duration(q) * 500 * time.Millisecond
		key := ConnKey{Remote: "fe-chicago", LocalPort: uint16(40000 + q), RemotePort: 80}
		root := &Span{
			Name: "query", Track: "client-1", Key: key,
			Start: base, End: base + 300*time.Millisecond,
		}
		root.SetAttr("keywords", `cloud "performance"`)
		root.SetAttr("cp_fetch_est_ns", "80000000")
		root.Child("handshake", base, base+40*time.Millisecond)
		root.Child("request", base+40*time.Millisecond, base+90*time.Millisecond)
		fe := &Span{
			Name: "fe-fetch", Track: "fe-chicago", Key: key,
			Start: base + 60*time.Millisecond, End: base + 250*time.Millisecond,
		}
		fe.SetAttr("be", "be-dc-east")
		fe.SetAttr("be_rtt_ns", "20000000")
		root.Children = append(root.Children, fe)
		for _, seg := range []struct {
			name     string
			from, to time.Duration
		}{
			{"cp:handshake", 0, 40 * time.Millisecond},
			{"cp:be-proc", 40 * time.Millisecond, 250 * time.Millisecond},
			{"cp:residual", 250 * time.Millisecond, 300 * time.Millisecond},
		} {
			c := root.Child(seg.name, base+seg.from, base+seg.to)
			c.Track = "critpath"
		}
		tr.Add(root)
	}
	return tr
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := buildTestTrace()
	var b strings.Builder
	if err := WriteSpansJSONL(&b, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("got %d lines, want %d", len(lines), tr.Len())
	}
	for i, line := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		for _, field := range []string{"track", "name", "parent", "depth", "start_us", "dur_us"} {
			if _, ok := obj[field]; !ok {
				t.Fatalf("line %d missing %q: %s", i, field, line)
			}
		}
	}
	// Children carry their parent's name.
	var child map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &child); err != nil {
		t.Fatal(err)
	}
	if child["parent"] != "query" {
		t.Fatalf("child parent = %v, want query", child["parent"])
	}
	// Attribution fields round-trip: the root's fetch estimate, the
	// fe-fetch BE link, and the cp:* waterfall spans on their track.
	var root map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &root); err != nil {
		t.Fatal(err)
	}
	if root["attr_cp_fetch_est_ns"] != "80000000" {
		t.Fatalf("root attr_cp_fetch_est_ns = %v", root["attr_cp_fetch_est_ns"])
	}
	cpSpans, feAttrs := 0, 0
	for _, line := range lines {
		var obj map[string]interface{}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatal(err)
		}
		if obj["track"] == "critpath" {
			cpSpans++
			if name, _ := obj["name"].(string); !strings.HasPrefix(name, "cp:") {
				t.Fatalf("critpath-track span named %q", name)
			}
		}
		if obj["name"] == "fe-fetch" {
			if obj["attr_be_rtt_ns"] != "20000000" || obj["attr_be"] != "be-dc-east" {
				t.Fatalf("fe-fetch missing BE attribution: %s", line)
			}
			feAttrs++
		}
	}
	if cpSpans != 6 || feAttrs != 2 {
		t.Fatalf("got %d cp spans and %d attributed fetches, want 6 and 2", cpSpans, feAttrs)
	}
}

func TestExportsDeterministic(t *testing.T) {
	render := func() (string, string) {
		tr := buildTestTrace()
		r := NewRegistry()
		r.Counter("a_total", "a").Add(7)
		r.CounterVec("b_total", "b", "k").With("v1").Inc()
		r.CounterVec("b_total", "b", "k").With("v0").Inc()
		var j, p strings.Builder
		if err := WriteSpansJSONL(&j, tr); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&p, r); err != nil {
			t.Fatal(err)
		}
		return j.String(), p.String()
	}
	j1, p1 := render()
	j2, p2 := render()
	if j1 != j2 || p1 != p2 {
		t.Fatal("exports differ between identical builds")
	}
}

func TestSpanTreeHelpers(t *testing.T) {
	tr := buildTestTrace()
	root := tr.Roots()[0]
	if d := root.Children[0].Dur(); d != 40*time.Millisecond {
		t.Fatalf("handshake dur = %v", d)
	}
	depths := map[string]int{}
	tr.Walk(func(s *Span, depth int) { depths[s.Name] = depth })
	if depths["query"] != 0 || depths["fe-fetch"] != 1 {
		t.Fatalf("depths = %v", depths)
	}
}

// TestReadMetricsJSONLRejects pins the reader's input checks: every
// malformed dump is an error naming the line, never a panic and never a
// silently dropped series. The histogram row is a dump written before
// the fixed-bucket kind was removed.
// rejectRows are dumps ReadMetricsJSONL must refuse, with the error text
// each must name. FuzzReadMetricsJSONL starts from them too.
var rejectRows = []struct{ name, in, want string }{
	{"not json", "{", "line 1"},
	{"label count", `{"name":"a","kind":"counter","label_names":["x"],"label_values":[],"value":1}`,
		"1 label names vs 0 values"},
	{"bucket count", `{"name":"a","kind":"summary","alpha":0.01,"bucket_idx":[1,2],"bucket_n":[3]}`,
		"2 bucket indices vs 1 counts"},
	{"unknown kind", `{"name":"a","kind":"untyped","value":1}`, `line 1: unknown kind "untyped"`},
	{"removed histogram kind", `{"name":"ok_total","kind":"counter","value":1}` + "\n" +
		`{"name":"fe_fetch_seconds","kind":"histogram","bounds":[0.1],"counts":[1,0],"sum":0.05,"count":1}`,
		`line 2: unknown kind "histogram"`},
	{"schema collision", `{"name":"a","kind":"counter","value":1}` + "\n" + `{"name":"a","kind":"gauge","value":1}`,
		"inconsistent series"},
	// Found by FuzzReadMetricsJSONL's property: both were accepted and
	// then dumped as something the reader itself rejects ("+Inf") or
	// reads back with a different count.
	{"counter overflow", `{"name":"a","kind":"counter","value":1e308}` + "\n" + `{"name":"a","kind":"counter","value":1e308}`,
		`line 2: counter "a" overflows`},
	{"repeated bucket", `{"name":"a","kind":"summary","alpha":0.01,"bucket_idx":[1,1],"bucket_n":[3,4]}`,
		"bucket indices not ascending"},
}

func TestReadMetricsJSONLRejects(t *testing.T) {
	for _, tc := range rejectRows {
		reg, err := ReadMetricsJSONL(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
		if reg != nil {
			t.Errorf("%s: a rejected dump still returned a registry", tc.name)
		}
	}
}
