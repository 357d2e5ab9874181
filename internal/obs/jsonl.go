package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"time"
)

// WriteSpansJSONL dumps every span as one JSON object per line,
// depth-first with parents before children — the InfernoSIM-style
// capture/replay idiom: greppable, streamable, and trivially parsed
// back. Field order is fixed and floats are integral microsecond
// strings with nanosecond decimals, so output is deterministic.
func WriteSpansJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	var parents []string
	var line []byte
	t.Walk(func(s *Span, depth int) {
		if depth < len(parents) {
			parents = parents[:depth]
		}
		parent := ""
		if depth > 0 {
			parent = parents[depth-1]
		}
		parents = append(parents, s.Name)

		line = appendJSONString(append(line[:0], `{"track":`...), s.Track)
		line = appendJSONString(append(line, `,"name":`...), s.Name)
		line = appendJSONString(append(line, `,"parent":`...), parent)
		line = strconv.AppendInt(append(line, `,"depth":`...), int64(depth), 10)
		line = appendUsec(append(line, `,"start_us":`...), s.Start)
		line = appendUsec(append(line, `,"dur_us":`...), s.Dur())
		if s.Key != (ConnKey{}) {
			line = appendJSONString(append(line, `,"conn":`...), s.Key.String())
		}
		for _, a := range s.Attrs {
			line = appendJSONString(append(line, ','), "attr_"+a.K)
			line = appendJSONString(append(line, ':'), a.V)
		}
		line = append(line, "}\n"...)
		_, _ = bw.Write(line) // a bufio.Writer keeps its first error for Flush
	})
	return bw.Flush()
}

// appendUsec appends d as microseconds with nanosecond decimals.
func appendUsec(b []byte, d time.Duration) []byte {
	if d < 0 {
		b, d = append(b, '-'), -d
	}
	ns := d % time.Microsecond
	b = strconv.AppendInt(b, int64(d/time.Microsecond), 10)
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// appendJSONString appends s as a JSON string. Printable ASCII without
// ", \, <, > or & encodes as itself, quoted. Any other string goes to
// encoding/json coerced to valid UTF-8 first, so encoding is idempotent
// (encoding/json escapes an invalid byte, then passes U+FFFD through).
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(strings.ToValidUTF8(s, "\uFFFD")) // a string always marshals
			return append(b, enc...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
