package sim

import "testing"

// FreeList hands back the struct an earlier Put returned, zeroed, and
// its Get/Put cycle does not allocate once a struct is on the list.
func TestFreeListReusesZeroed(t *testing.T) {
	type job struct {
		n   int
		ref *int
	}
	var l FreeList[job]
	j := l.Get()
	j.n, j.ref = 7, new(int)
	l.Put(j)
	k := l.Get()
	if k != j {
		t.Fatal("Get did not reuse the struct Put returned")
	}
	if *k != (job{}) {
		t.Fatalf("reused struct not zeroed: %+v", *k)
	}
	l.Put(k)
	allocs := testing.AllocsPerRun(200, func() { l.Put(l.Get()) })
	if allocs != 0 {
		t.Errorf("Get/Put allocates %.1f/op in steady state, want 0", allocs)
	}
}
