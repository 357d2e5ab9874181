package tcpsim

import (
	"reflect"
	"testing"
	"unsafe"
)

// scanned returns the path of the first field in t the garbage
// collector has to scan — a pointer, slice, string, map, channel,
// function or interface — or "" when t is pointer-free.
func scanned(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return path
	case reflect.Array:
		return scanned(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			if p := scanned(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestRowLayouts pins the per-packet rows the lane copies by value: a
// segment header ≤ 40 bytes and a lane event ≤ 56, both pointer-free,
// so a copy is a few register moves (not runtime.duffcopy) and a ring
// slot holds one GC-visible word, its payload slice. Mutation: put a
// slice (payload bytes, SACK blocks) back into Segment.
func TestRowLayouts(t *testing.T) {
	for _, tc := range []struct {
		v   any
		max uintptr
	}{{Segment{}, 40}, {fastEvent{}, 56}} {
		typ := reflect.TypeOf(tc.v)
		if n := typ.Size(); n > tc.max {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want ≤ %d", typ.Name(), n, tc.max)
		}
		if p := scanned(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a GC-visible field: %s", typ.Name(), p)
		}
	}
	if n := unsafe.Sizeof(TapEvent{}); n > 64 {
		t.Errorf("unsafe.Sizeof(TapEvent{}) = %d, want ≤ 64: every tap call copies it", n)
	}
}
