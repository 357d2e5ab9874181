package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteSpansJSONL dumps every span as one JSON object per line,
// depth-first with parents before children — the InfernoSIM-style
// capture/replay idiom: greppable, streamable, and trivially parsed
// back. Field order is fixed and floats are integral microsecond
// strings with nanosecond decimals, so output is deterministic.
func WriteSpansJSONL(w io.Writer, t *Tracer) error {
	bw := &errWriter{w: w}
	var parents []string
	t.Walk(func(s *Span, depth int) {
		if depth < len(parents) {
			parents = parents[:depth]
		}
		parent := ""
		if depth > 0 {
			parent = parents[depth-1]
		}
		parents = append(parents, s.Name)

		bw.printf(`{"track":%s,"name":%s,"parent":%s,"depth":%d,"start_us":%s,"dur_us":%s`,
			jstr(s.Track), jstr(s.Name), jstr(parent), depth, usec(s.Start), usec(s.Dur()))
		if s.Key != (ConnKey{}) {
			bw.printf(`,"conn":%s`, jstr(s.Key.String()))
		}
		for _, a := range s.Attrs {
			bw.printf(",%s:%s", jstr("attr_"+a.K), jstr(a.V))
		}
		bw.printf("}\n")
	})
	return bw.err
}

// usec renders a duration as microseconds with nanosecond precision.
func usec(d time.Duration) string {
	neg := ""
	if d < 0 {
		neg, d = "-", -d
	}
	return fmt.Sprintf("%s%d.%03d", neg, d/time.Microsecond, d%time.Microsecond)
}

// jstr JSON-encodes a string. Invalid UTF-8 is coerced to U+FFFD first
// so encoding is idempotent: re-encoding a decoded value yields the
// same bytes (encoding/json would otherwise escape the invalid byte on
// the first pass and pass the replacement rune through on the second).
func jstr(s string) string {
	b, _ := json.Marshal(strings.ToValidUTF8(s, "�"))
	return string(b)
}

// errWriter latches the first write error so export code can stay
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
