// Package bufpool recycles the buffers that ldl1d and its client read HTTP
// bodies into and render answers in.
package bufpool

import (
	"bytes"
	"io"
	"sync"
)

var pool = sync.Pool{New: func() any { return new([]byte) }}

// Get returns an empty buffer.
func Get() *[]byte { return pool.Get().(*[]byte) }

// Put recycles p, unless it grew past 64 KiB: one oversized body must not
// stay pinned for the life of the process.  Neither p nor its bytes may be
// used afterwards.
func Put(p *[]byte) {
	if cap(*p) <= 64<<10 {
		*p = (*p)[:0]
		pool.Put(p)
	}
}

// ReadFrom appends what r holds up to EOF to *p.
func ReadFrom(p *[]byte, r io.Reader) error {
	b := bytes.NewBuffer(*p)
	_, err := b.ReadFrom(r)
	*p = b.Bytes()
	return err
}
