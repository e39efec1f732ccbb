package core

// Memory tests: the simulator's objects stay near the words the model
// charges for them. A trie node is 48 bytes, a master replica slot 16
// pointer-free bytes, and the heap an index retains after Build is
// within a small factor of its module space.

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// pointerFree reports whether values of t hold no pointer the garbage
// collector must scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return false
	default:
		return true
	}
}

func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(trie.Node{}); got != 48 {
		t.Errorf("trie.Node is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(metaSlot{}); got > 16 {
		t.Errorf("master replica slot is %d bytes, want ≤ 16", got)
	}
	if !pointerFree(reflect.TypeOf(metaSlot{})) {
		t.Errorf("master replica slot holds a pointer")
	}
}

// TestModuleBytesNearModel bounds the heap an index retains after Build
// by its model space: at most 2.5 bytes of heap per byte of
// SpaceWords. Under the race detector only a loose bound applies.
func TestModuleBytesNearModel(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement is not meaningful under -short")
	}
	g := workload.New(1)
	keys := g.VarLen(20000, 48, 192)
	values := g.Values(len(keys))
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	sys := pim.NewSystem(32, pim.WithSeed(1))
	defer sys.Close()
	pt := New(sys, Config{HashSeed: 1})
	pt.Build(keys, values)
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(pt)
	words, _ := sys.SpaceWords()
	ratio := float64(retained) / float64(words*8)
	t.Logf("retained %.1f MB for %.1f MB of model space: %.2f×", float64(retained)/1e6, float64(words*8)/1e6, ratio)
	if bound := allocBound(2.5, 3); ratio > bound {
		t.Fatalf("index retains %.2f× its model space; bound is %.1f×", ratio, bound)
	}
}
