// Package pack provides the data-item representation the SAM runtime
// manages, playing the role of the paper's preprocessor: it knows how to
// size, copy ("pack/unpack"), and transfer user-defined hierarchical data
// types, including non-contiguous structures connected by pointers.
//
// Transfers between nodes always deep-copy: nodes of a distributed memory
// machine share nothing, and the simulated cluster preserves that property
// so that programs cannot accidentally communicate through shared Go
// memory.
package pack

import (
	"fmt"
	"reflect"
)

// Item is a shared data item managed by the SAM runtime. SizeBytes is the
// packed size used for communication cost modeling; Clone produces a deep
// copy, modelling pack + transfer + unpack.
type Item interface {
	SizeBytes() int
	Clone() Item
}

// Bytes is a raw byte-slice item.
type Bytes []byte

// SizeBytes returns the slice length.
func (b Bytes) SizeBytes() int { return len(b) }

// Clone deep-copies the bytes.
func (b Bytes) Clone() Item {
	c := make(Bytes, len(b))
	copy(c, b)
	return c
}

// Float64s is a dense vector of doubles (8 bytes per element).
type Float64s []float64

// SizeBytes returns 8 bytes per element.
func (f Float64s) SizeBytes() int { return 8 * len(f) }

// Clone deep-copies the vector.
func (f Float64s) Clone() Item {
	c := make(Float64s, len(f))
	copy(c, f)
	return c
}

// Ints is a vector of integers (8 bytes per element).
type Ints []int

// SizeBytes returns 8 bytes per element.
func (v Ints) SizeBytes() int { return 8 * len(v) }

// Clone deep-copies the vector.
func (v Ints) Clone() Item {
	c := make(Ints, len(v))
	copy(c, v)
	return c
}

// Value wraps an arbitrary Go value as an Item using reflection for deep
// copy and size estimation. This is the general-purpose path corresponding
// to the paper's preprocessor handling "complex C data types, including
// types that contain pointers". Like the preprocessor, it handles simple
// hierarchical data (structs, pointers, slices, maps, strings) but not
// general graphs with aliased pointers: shared sub-objects are duplicated.
type Value struct {
	V any
}

// SizeBytes estimates the packed size of the wrapped value.
func (g Value) SizeBytes() int { return SizeOf(g.V) }

// Clone deep-copies the wrapped value.
func (g Value) Clone() Item { return Value{V: DeepCopy(g.V)} }

// SizeOf estimates the packed size in bytes of an arbitrary value,
// traversing pointers, slices, maps and structs.
func SizeOf(v any) int {
	if v == nil {
		return 0
	}
	return sizeOf(reflect.ValueOf(v))
}

func sizeOf(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return 8 + v.Len()
	case reflect.Ptr:
		if v.IsNil() {
			return 8
		}
		return 8 + sizeOf(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return 8
		}
		if each := fixedSize(v.Type().Elem()); each >= 0 {
			return 8 + v.Len()*each
		}
		n := 8
		for i := 0; i < v.Len(); i++ {
			n += sizeOf(v.Index(i))
		}
		return n
	case reflect.Array:
		if each := fixedSize(v.Type().Elem()); each >= 0 {
			return v.Len() * each
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += sizeOf(v.Index(i))
		}
		return n
	case reflect.Map:
		n := 8
		for _, k := range v.MapKeys() {
			n += sizeOf(k) + sizeOf(v.MapIndex(k))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += sizeOf(v.Field(i))
		}
		return n
	case reflect.Interface:
		if v.IsNil() {
			return 8
		}
		return 8 + sizeOf(v.Elem())
	default:
		if n := fixedSize(v.Type()); n >= 0 {
			return n // a scalar
		}
		panic(fmt.Sprintf("pack: cannot size kind %v", v.Kind()))
	}
}

// fixedSize returns the packed size every value of type t has, or -1 if
// it depends on the value (strings, pointers, slices, maps, interfaces,
// and anything containing one). It lets sizeOf take a slice or array of
// such elements as length × size instead of walking it through reflect:
// sizing a block of floats cost more than cloning it.
func fixedSize(t reflect.Type) int {
	switch t.Kind() {
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
	case reflect.Array:
		if each := fixedSize(t.Elem()); each >= 0 {
			return t.Len() * each
		}
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			f := fixedSize(t.Field(i).Type)
			if f < 0 {
				return -1
			}
			n += f
		}
		return n
	}
	return -1
}

// DeepCopy returns a deep copy of v, traversing pointers, slices, maps and
// structs. Unexported struct fields are not supported (the preprocessor
// worked on plain C structs; use explicit Item implementations for types
// with hidden state). Channels and funcs cannot be packed.
func DeepCopy(v any) any {
	if v == nil {
		return nil
	}
	return deepCopy(reflect.ValueOf(v)).Interface()
}

func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type().Elem())
		c.Elem().Set(deepCopy(v.Elem()))
		return c
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Array:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.Len(); i++ {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
		return c
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for _, k := range v.MapKeys() {
			c.SetMapIndex(deepCopy(k), deepCopy(v.MapIndex(k)))
		}
		return c
	case reflect.Struct:
		c := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			if !c.Field(i).CanSet() {
				panic(fmt.Sprintf("pack: cannot copy unexported field %s.%s",
					v.Type(), v.Type().Field(i).Name))
			}
			c.Field(i).Set(deepCopy(v.Field(i)))
		}
		return c
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		c := reflect.New(v.Type()).Elem()
		c.Set(deepCopy(v.Elem()))
		return c
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		panic(fmt.Sprintf("pack: cannot copy kind %v", v.Kind()))
	default:
		return v
	}
}
