package sim

// FreeList recycles pointers to job structs that a hot path hands
// through ScheduleArg-style callbacks as their argument: Get reuses a
// struct an earlier Put returned (zeroed), so a pipeline that gets one
// per packet and puts it back when the packet leaves allocates nothing
// in steady state.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed *T, reusing a returned one when available.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	j := l.free[n-1]
	l.free = l.free[:n-1]
	return j
}

// Put zeroes j and keeps it for a later Get. j must not be used after.
func (l *FreeList[T]) Put(j *T) {
	var zero T
	*j = zero
	l.free = append(l.free, j)
}
