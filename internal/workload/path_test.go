package workload

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is compiled
// in: it allocates on its own account, so an exact allocation pin skips.
var raceEnabled bool

// refPath and refParsePath are Path and ParsePath as they were when both
// went through net/url: the oracles of FuzzQueryPath and FuzzParsePath.
func refPath(q Query) string {
	v := url.Values{}
	v.Set("q", q.Keywords)
	v.Set("c", fmt.Sprint(uint8(q.Class)))
	v.Set("r", fmt.Sprint(q.Rank))
	v.Set("id", fmt.Sprint(q.ID))
	return "/search?" + v.Encode()
}

func refParsePath(path string) (Query, error) {
	u, err := url.Parse(path)
	if err != nil {
		return Query{}, fmt.Errorf("workload: bad query path %q: %v", path, err)
	}
	if u.Path != "/search" {
		return Query{}, fmt.Errorf("workload: not a search path: %q", path)
	}
	v := u.Query()
	kw := v.Get("q")
	if kw == "" {
		return Query{}, fmt.Errorf("workload: missing q parameter in %q", path)
	}
	q := Query{
		Keywords: kw,
		Terms:    len(strings.Fields(kw)),
	}
	if c, err := strconv.Atoi(v.Get("c")); err == nil {
		q.Class = Class(c)
	}
	if r, err := strconv.Atoi(v.Get("r")); err == nil {
		q.Rank = r
	}
	if id, err := strconv.Atoi(v.Get("id")); err == nil {
		q.ID = id
	}
	return q, nil
}

// checkParsePath holds ParsePath to the net/url reference: the same
// Query, or an error from both.
func checkParsePath(t *testing.T, path string) {
	t.Helper()
	got, err := ParsePath(path)
	want, refErr := refParsePath(path)
	if (err == nil) != (refErr == nil) || got != want {
		t.Fatalf("ParsePath(%q) = %+v, %v; net/url reference = %+v, %v", path, got, err, want, refErr)
	}
}

// FuzzQueryPath holds Path to "/search?" + url.Values.Encode() byte for
// byte, for arbitrary keywords, class, rank and ID, and the result to
// parse back like the reference does.
func FuzzQueryPath(f *testing.F) {
	f.Add("computer science department", uint8(ClassComplex), 102, 7)
	f.Add("unlisted term 3 xq23757z", uint8(ClassMixed), -1, 0)
	f.Add("a&b=c;d%e+f#g?h/ü\t", uint8(255), 1<<40, -1<<40)
	f.Add("", uint8(0), 0, 0)
	f.Fuzz(func(t *testing.T, kw string, class uint8, rank, id int) {
		q := Query{Keywords: kw, Class: Class(class), Rank: rank, ID: id}
		if got, want := q.Path(), refPath(q); got != want {
			t.Fatalf("Path(%+v) = %q, want %q", q, got, want)
		}
		checkParsePath(t, q.Path())
	})
}

// TestPathAllocPins pins what the query URL costs: one string to build
// it, and to parse it back only the unescaped keywords (none when they
// need no unescaping). The counts are exact; update them only with a
// reason.
func TestPathAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	q := Query{ID: 7, Class: ClassComplex, Keywords: "computer science department", Terms: 3, Rank: 102}
	one := Query{ID: 8, Class: ClassPopular, Keywords: "weather", Terms: 1, Rank: 3}
	path, onePath := q.Path(), one.Path()
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Query.Path", 1, func() { _ = q.Path() }},
		{"ParsePath", 1, func() {
			if got, err := ParsePath(path); err != nil || got != q {
				t.Fatal(got, err)
			}
		}},
		{"ParsePath/one-term", 0, func() {
			if got, err := ParsePath(onePath); err != nil || got != one {
				t.Fatal(got, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocations, pinned %v", c.name, got, c.want)
		}
	}
}
