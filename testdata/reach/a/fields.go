package a

import "sync"

// The field check's cases: main sets and reads the fields, except as
// noted; Report and Flags.Listed are allowlisted.
type (
	Set    struct{ Assigned, Incremented, Keyed int } // set by =, ++ and a key
	Pair   struct{ A, B int }                         // built positionally, read only by ==
	Key    struct{ K int }                            // built positionally, read only as a map key
	In     struct{ V int }                            // read only by the conversion to Out
	Out    struct{ V int }                            // set only by the conversion from In
	Inner  struct{ X int }
	Outer  struct{ Inner }                     // Inner read only through the promoted X
	Counts struct{ N int }                     // returned only by Report
	Flags  struct{ Unread, Unset, Listed int } // Unread and Unset are reported
	JSON   struct {
		N int `json:"n"` // reached only by encoding/json
	}
	Nested struct {
		In Inner  // set only by writing into In.X
		A  [1]int // set only by writing into A[0]
	}
	Addr struct { // touched only through their addresses:
		n   int        // &
		mu  sync.Mutex // a pointer method
		buf [2]byte    // a slice
	}
)

var Seen = map[Key]bool{{1}: true}

func (a *Addr) Use() bool { return a.mu.TryLock() && copy(a.buf[:], "ab") > *(&a.n) }

func Convert() int { return Out(In{V: 1}).V }

func Build() (o Outer, n Nested, f Flags) {
	n.In.X, n.A[0] = 1, 1
	return Outer{Inner{X: 1}}, n, Flags{Unread: 1, Listed: 1}
}

func Report() Counts { return Counts{N: 1} }

// Map is an exported generic.
func Map[T any](v T) T { return v }
