// Package a holds the reachability checker's cases.
package a

import "fmt"

// Live is called; T.Live shares its name and is called by nothing.
func Live() {}

// T is built by NewT.
type T struct{}

func (T) Live() {}

func NewT() T { return T{} }

// S's String is reached only through the conversion to fmt.Stringer in
// Show.
type S struct{}

func (S) String() string { return "s" }

func Show() string { return show(S{}) }

func show(s fmt.Stringer) string { return s.String() }

// Listed is allowlisted, but main calls it.
func Listed() {}

// U's Mark is reached only through the type assertion in Mark.
type U struct{}

func (U) Mark() {}

func Mark(v any) {
	if m, ok := v.(interface{ Mark() }); ok {
		m.Mark()
	}
}

// Getter's implementations are reached only through an assignment (V,
// in Assign) and a return (W, in Wrap).
type Getter interface{ Get() int }

type V struct{}

func (V) Get() int { return 1 }

func Assign() int {
	var g Getter
	g = V{}
	return g.Get()
}

type W struct{}

func (W) Get() int { return 2 }

func Wrap() Getter { return W{} }
