// Package stream carries the name of the repo's delivery layer, which
// once moved pooled blocks between functions; a package name grants no
// exemption, so both escapes are findings here as anywhere.
package stream

import "sync"

type block struct{ events []int }

func (b *block) Reset() { b.events = b.events[:0] }

var blockPool = sync.Pool{New: func() any { return new(block) }}

func next() *block {
	b := blockPool.Get().(*block)
	return b // want `pooled b escapes via return`
}

func deliver(ch chan *block) {
	b := blockPool.Get().(*block)
	ch <- b // want `pooled b escapes via channel send`
}
