// Command reach calls what the fixture's package a exports, except T.Live.
package main

import "reach/a"

func main() {
	a.Live()
	_ = a.NewT()
	a.Listed()
	println(a.Show())
	a.Mark(a.U{})
	println(a.Assign(), a.Wrap().Get())

	s := a.Set{Keyed: 1}
	s.Assigned = 1
	s.Incremented++
	o, n, f := a.Build()
	println(s.Assigned, s.Incremented, s.Keyed, a.Pair{1, 2} == a.Pair{2, 1}, a.Seen[a.Key{}], &a.JSON{})
	println(new(a.Addr).Use(), a.Convert(), o.X, n.In.X, n.A[0], f.Unset, f.Listed, a.Map(1))
}
