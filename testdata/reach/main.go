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
}
