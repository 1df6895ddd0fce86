package proxy

// Pooled bufio wrappers: the server takes one writer per response and one
// request reader per connection, and the client one reader per attempt,
// so under churn these buffers dominated the allocation profile. Reset
// makes them safe to recycle; a pooled wrapper never retains its previous
// connection. An idle kept connection holds only its request reader,
// which is sized for a request frame, not for a response.

import (
	"bufio"
	"io"
	"sync"
)

const (
	connBufSize = 64 * 1024
	// reqBufSize holds a request frame whose name is up to 1 KiB long in
	// one read; a longer one takes more.
	reqBufSize = reqFixedLen + 1024 + reqTailExLen
)

var (
	connReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, connBufSize) }}
	connWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, connBufSize) }}
	reqReaderPool  = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, reqBufSize) }}
)

func getConnReader(r io.Reader) *bufio.Reader {
	br := connReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putConnReader(br *bufio.Reader) {
	br.Reset(nil)
	connReaderPool.Put(br)
}

func getReqReader(r io.Reader) *bufio.Reader {
	br := reqReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReqReader(br *bufio.Reader) {
	br.Reset(nil)
	reqReaderPool.Put(br)
}

func getConnWriter(w io.Writer) *bufio.Writer {
	bw := connWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putConnWriter recycles bw; any unflushed bytes are dropped, so the
// caller must Flush first on the success path.
func putConnWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	connWriterPool.Put(bw)
}
