package pack

import (
	"fmt"
	"reflect"
	"testing"
)

// sizeByWalk is SizeOf as it was before slices and arrays of fixed-size
// elements were sized by multiplication: every element visited through
// reflect. It stays here as the reference the shortcut must agree with.
func sizeByWalk(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64,
		reflect.Float64, reflect.Complex64, reflect.Uintptr:
		return 8
	case reflect.Complex128:
		return 16
	case reflect.String:
		return 8 + v.Len()
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return 8
		}
		return 8 + sizeByWalk(v.Elem())
	case reflect.Slice, reflect.Array:
		n := 0
		if v.Kind() == reflect.Slice {
			if v.IsNil() {
				return 8
			}
			n = 8
		}
		for i := 0; i < v.Len(); i++ {
			n += sizeByWalk(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 8
		for _, k := range v.MapKeys() {
			n += sizeByWalk(k) + sizeByWalk(v.MapIndex(k))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += sizeByWalk(v.Field(i))
		}
		return n
	}
	panic(fmt.Sprintf("cannot size kind %v", v.Kind()))
}

func TestSizeOfMatchesElementWalk(t *testing.T) {
	type vec struct{ X, Y, Z float64 }
	type body struct { // fixed size, nested struct and array inside
		ID   int32
		Pos  vec
		Hist [3]vec
		Live bool
	}
	type cell struct { // variable: a pointer and a string among the fields
		Bodies []body
		Parent *cell
		Label  string
	}
	cases := []struct {
		name string
		v    any
	}{
		{"float64 slice", make([]float64, 4096)},
		{"empty non-nil slice", []float64{}},
		{"nil slice", []float64(nil)},
		{"named slice item", Float64s{1, 2, 3}},
		{"bytes", Bytes("hello")},
		{"array of ints", [7]int16{}},
		{"array of arrays", [3][5]complex128{}},
		{"slice of fixed structs", make([]body, 9)},
		{"nested struct with slices", cell{Bodies: make([]body, 3), Label: "leaf"}},
		{"slice of structs with pointers", []cell{
			{Bodies: make([]body, 2), Parent: &cell{Label: "up"}},
			{Label: "no bodies"},
		}},
		{"slice of pointers", []*vec{{1, 2, 3}, nil, {4, 5, 6}}},
		{"slice of strings", []string{"a", "bcd", ""}},
		{"slice of slices", [][]int32{{1, 2}, nil, {}}},
		{"array of strings", [2]string{"xy", "z"}},
		{"map of slices", map[string][]float32{"a": {1, 2, 3}, "b": nil}},
		{"map with struct keys", map[vec]body{{1, 0, 0}: {ID: 1}}},
		{"slice of interfaces", []any{int8(1), "two", []uint16{3, 3, 3}, nil}},
		{"tree", sampleTree()},
		{"string", "plain"},
	}
	for _, tc := range cases {
		got, want := SizeOf(tc.v), sizeByWalk(reflect.ValueOf(tc.v))
		if got != want {
			t.Errorf("%s: SizeOf = %d, element walk gives %d", tc.name, got, want)
		}
	}
}

var sizeSink int

// BenchmarkSizeOfFloat64s shows the size of a block of floats no longer
// depends on its length.
func BenchmarkSizeOfFloat64s(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		v := make(Float64s, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sizeSink = SizeOf(v)
			}
		})
	}
}
