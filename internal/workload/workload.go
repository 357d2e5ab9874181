// Package workload generates the search-query workload and the
// synthesized search-result content for the simulated services.
//
// The paper submits keyword queries of varying popularity, granularity
// and complexity (Section 3, "Choice and Effect of Search Queries") and
// observes that the dynamic portion of the response — and the back-end
// time to generate it — depends strongly on the query class, while the
// static portion does not. This package reproduces those degrees of
// freedom: a deterministic keyword generator with four query classes, a
// response-content synthesizer that emits a service-wide static prefix
// followed by a query-dependent dynamic body, and a back-end cost model
// mapping query class and popularity to processing time.
package workload

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"fesplit/internal/stats"
)

// Class labels the paper's query categories.
type Class uint8

// Query classes.
const (
	// ClassPopular is a short, popular query from the head of the
	// popularity distribution — like the Bing main-page trending list.
	ClassPopular Class = iota
	// ClassGranular is a concatenated, increasingly refined query
	// ("computer science department at university of minnesota").
	ClassGranular
	// ClassComplex is a long, many-term query.
	ClassComplex
	// ClassMixed combines terms that are not correlated
	// ("computer and potato"), defeating back-end result caches.
	ClassMixed
)

// Classes lists all query classes in presentation order.
func Classes() []Class {
	return []Class{ClassPopular, ClassGranular, ClassComplex, ClassMixed}
}

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPopular:
		return "popular"
	case ClassGranular:
		return "granular"
	case ClassComplex:
		return "complex"
	case ClassMixed:
		return "mixed"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Query is one search query.
type Query struct {
	ID       int
	Class    Class
	Keywords string
	Terms    int // number of whitespace-separated terms
	Rank     int // popularity rank; 0 = most popular
}

// vocab is the embedded vocabulary; keyword strings are deterministic
// combinations of these words.
var vocab = []string{
	"computer", "science", "department", "university", "minnesota",
	"cloud", "computing", "network", "measurement", "performance",
	"server", "front", "end", "backend", "data", "center", "content",
	"distribution", "dynamic", "static", "search", "engine", "query",
	"response", "latency", "bandwidth", "protocol", "internet",
	"weather", "news", "video", "music", "movie", "game", "sports",
	"football", "baseball", "recipe", "restaurant", "travel", "hotel",
	"flight", "map", "direction", "stock", "market", "finance", "bank",
	"health", "doctor", "symptom", "medicine", "school", "college",
	"history", "geography", "physics", "chemistry", "biology", "math",
	"potato", "tomato", "garden", "camera", "phone", "laptop", "tablet",
	"battery", "charger", "wireless", "router", "printer", "monitor",
	"keyboard", "election", "president", "congress", "policy", "economy",
	"climate", "energy", "solar", "electric", "vehicle", "highway",
	"airport", "museum", "library", "theater", "concert", "festival",
	"holiday", "birthday", "wedding", "fashion", "shoes", "jacket",
	"coffee", "pizza", "burger", "salad", "dessert", "chocolate",
}

// Generator produces deterministic query streams. A Generator is not
// safe for concurrent use; create one per experiment with a fixed seed.
// Generators share the read-only popularity table and own their RNG.
type Generator struct {
	rng  *rand.Rand
	zipf *stats.Zipf
	seq  int
}

// NumRanks is the size of the popularity universe, matching the paper's
// 40,000-keyword experiment pool.
const NumRanks = 40000

// popularity is the Zipf table over NumRanks that every Generator
// draws from, built once per process.
var popularity = sync.OnceValue(func() *stats.Zipf { return stats.NewZipf(NumRanks, 1.01) })

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: stats.NewRand(seed), zipf: popularity()}
}

// termCount returns the term-count range per class.
func termCount(c Class, rng *rand.Rand) int {
	switch c {
	case ClassPopular:
		return 1 + rng.Intn(2) // 1-2
	case ClassGranular:
		return 3 + rng.Intn(4) // 3-6
	case ClassComplex:
		return 6 + rng.Intn(5) // 6-10
	default: // ClassMixed
		return 2 + rng.Intn(3) // 2-4
	}
}

// Query generates one query of the given class.
func (g *Generator) Query(c Class) Query {
	g.seq++
	terms := termCount(c, g.rng)
	var rank int
	switch c {
	case ClassPopular:
		// Head of the Zipf: resample until we land in the top 1%.
		rank = g.zipf.Draw(g.rng) % (NumRanks / 100)
	case ClassMixed:
		// Uncorrelated terms land in the deep tail.
		rank = NumRanks/2 + g.rng.Intn(NumRanks/2)
	default:
		rank = g.zipf.Draw(g.rng)
	}
	words := make([]string, terms)
	base := rank
	for i := range words {
		if c == ClassMixed {
			// Deliberately uncorrelated vocabulary picks.
			words[i] = vocab[g.rng.Intn(len(vocab))]
		} else {
			words[i] = vocab[(base+i*7)%len(vocab)]
		}
	}
	return Query{
		ID:       g.seq,
		Class:    c,
		Keywords: strings.Join(words, " "),
		Terms:    terms,
		Rank:     rank,
	}
}

// Corpus generates n queries of a class.
func (g *Generator) Corpus(n int, c Class) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Query(c)
	}
	return out
}

// DistinctQueries generates n queries guaranteed to have distinct
// keyword strings — the "each node submits a different search query"
// caching-detection experiment. All queries share the same term count
// and popularity band so the two probe phases differ only in keyword
// identity, not in back-end cost profile.
func (g *Generator) DistinctQueries(n int) []Query {
	out := make([]Query, n)
	for i := range out {
		g.seq++
		// Ranks stay outside the popular head so no query receives the
		// back-end popularity discount.
		rank := NumRanks/50 + (i*37)%(NumRanks-NumRanks/50)
		words := []string{
			vocab[rank%len(vocab)],
			vocab[(rank+7)%len(vocab)],
			vocab[(rank+13)%len(vocab)],
			fmt.Sprintf("q%d", i),
		}
		kw := strings.Join(words, " ")
		out[i] = Query{
			ID:       g.seq,
			Class:    ClassGranular,
			Keywords: kw,
			Terms:    len(words),
			Rank:     rank,
		}
	}
	return out
}

// Path renders the query as a search URL path, like the emulator's GET.
// Query metadata (class, rank, id) rides along as parameters so the
// back-end cost model can recover it from the wire — the in-house
// emulator controls both ends, like the paper's. The bytes are those of
// url.Values.Encode (keys sorted, q query-escaped), copied once from the
// stack into the string.
func (q Query) Path() string {
	var buf [256]byte
	b := append(buf[:0], "/search?c="...)
	b = strconv.AppendUint(b, uint64(q.Class), 10)
	b = append(b, "&id="...)
	b = strconv.AppendInt(b, int64(q.ID), 10)
	b = append(b, "&q="...)
	for i := 0; i < len(q.Keywords); i++ {
		switch c := q.Keywords[i]; {
		case c == ' ':
			b = append(b, '+')
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~':
			b = append(b, c)
		default:
			b = append(b, '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&15])
		}
	}
	b = append(b, "&r="...)
	b = strconv.AppendInt(b, int64(q.Rank), 10)
	return string(b)
}

// ParsePath reconstructs a Query from a search URL path produced by
// (Query).Path, accepting exactly what net/url would. A "/search?" path
// with no fragment or control byte is cut on '&' and '=' in place; any
// other target (a scheme, an authority, an escaped path) goes through
// url.Parse. Parameters follow url.ParseQuery: a pair with ';' or a bad
// escape is skipped, and only a key's first value counts.
func ParsePath(path string) (Query, error) {
	raw, ok := strings.CutPrefix(path, "/search?")
	if !ok || strings.ContainsFunc(raw, func(r rune) bool { return r == '#' || r < ' ' || r == 0x7f }) {
		u, err := url.Parse(path)
		if err != nil {
			return Query{}, fmt.Errorf("workload: bad query path %q: %v", path, err)
		}
		if u.Path != "/search" {
			return Query{}, fmt.Errorf("workload: not a search path: %q", path)
		}
		raw = u.RawQuery
	}
	var kw string
	var nums [4]int // q (unused), c, r, id
	var seen [4]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		key := slices.Index([]string{"q", "c", "r", "id"}, k)
		if strings.Contains(pair, ";") || err != nil || key < 0 || seen[key] {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		seen[key] = true
		if key == 0 {
			kw = v
		} else if n, err := strconv.Atoi(v); err == nil {
			nums[key] = n
		}
	}
	if kw == "" {
		return Query{}, fmt.Errorf("workload: missing q parameter in %q", path)
	}
	return Query{ID: nums[3], Class: Class(nums[1]), Keywords: kw, Terms: countTerms(kw), Rank: nums[2]}, nil
}

// countTerms is len(strings.Fields(s)) without building the slice.
func countTerms(s string) int {
	n, inTerm := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inTerm {
			n++
		}
		inTerm = !space
	}
	return n
}
