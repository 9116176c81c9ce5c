package gm

import (
	"math/bits"
	"sync"
)

// Receive buffers. GM lands a message in a receive buffer of a fixed
// size class that the host posted (gm_provide_receive_buffer) and
// re-posts once the message is consumed. This model keeps one free
// list per power-of-two size class: a message assembles into a buffer
// from its class's list, and the buffer goes back when the handler
// that saw the message (Host.OnMessage or Port.OnReceive) returns. So
// a delivered payload is valid only until its handler returns; a
// handler that keeps the bytes copies them.
//
// The lists are shared by every host in the process, behind one lock,
// and each holds at most recvClassCap idle buffers: a list per host
// would keep idle buffers on every host of a large cluster.
const (
	// numRecvClasses counts the classes 1 B, 2 B, …, 64 KiB. A larger
	// message assembles into a buffer of its own, which is not kept.
	numRecvClasses = 17
	// recvClassCap bounds each class's idle buffers, so the lists
	// retain at most recvClassCap × (2^numRecvClasses − 1) bytes
	// (4 MiB), and only in the classes the process's messages use.
	recvClassCap = 32
)

var recvBufs struct {
	sync.Mutex
	free [numRecvClasses][][]byte
}

// recvClass is the class of an n-byte buffer (n ≥ 1): the smallest k
// with 2^k ≥ n.
func recvClass(n int) int { return bits.Len(uint(n - 1)) }

// getRecvBuf returns an empty buffer with room for n ≥ 1 bytes: a free
// one of n's class, or a new one.
func getRecvBuf(n int) []byte {
	k := recvClass(n)
	if k >= numRecvClasses {
		return make([]byte, 0, n)
	}
	recvBufs.Lock()
	if l := recvBufs.free[k]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		recvBufs.free[k] = l[:len(l)-1]
		recvBufs.Unlock()
		return b
	}
	recvBufs.Unlock()
	return make([]byte, 0, 1<<k)
}

// putRecvBuf returns a buffer getRecvBuf handed out to its class's
// list. A buffer of no class, or one its full list has no room for,
// is left to the collector.
func putRecvBuf(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := recvClass(c)
	if k >= numRecvClasses {
		return
	}
	recvBufs.Lock()
	if len(recvBufs.free[k]) < recvClassCap {
		recvBufs.free[k] = append(recvBufs.free[k], b[:0])
	}
	recvBufs.Unlock()
}

// appendFrag appends a fragment to a message's assembly. The first
// fragment takes a buffer of its own size's class; a later one that
// does not fit moves the assembly to a buffer of at least twice the
// capacity and returns the old one. An empty message stays nil.
func appendFrag(asm, frag []byte) []byte {
	if n := len(asm) + len(frag); n > cap(asm) {
		grown := append(getRecvBuf(max(n, 2*cap(asm))), asm...)
		putRecvBuf(asm)
		asm = grown
	}
	return append(asm, frag...)
}
