package proxy

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/checksum"
	"repro/internal/codec"
	"repro/internal/workload"
)

// TestServerConcurrentClients hammers the server with 32 goroutine clients
// over overlapping (file, scheme, mode) tuples and asserts:
//
//	(a) no data corruption — every fetch's CRC-32 matches the registered
//	    content (internal/checksum);
//	(b) singleflight — at most one build ran per cache key;
//	(c) the Stats() counters reconcile exactly with observed traffic.
//
// Run under `go test -race`; the CI target does.
func TestServerConcurrentClients(t *testing.T) {
	// All files span multiple 128 KB blocks so the pipeline and framing are
	// exercised, but stay small enough that -race runs finish quickly.
	files := map[string][]byte{
		"doc.xml":   workload.Generate(workload.ClassXML, 200_000, 1),
		"app.bin":   workload.Generate(workload.ClassBinary, 150_000, 2),
		"mail.mbox": workload.Generate(workload.ClassMail, 160_000, 3),
		"mixed.tar": workload.MixedFile(256_000, 4),
	}
	wantCRC := make(map[string]uint32, len(files))
	for n, data := range files {
		wantCRC[n] = checksum.CRC32(data)
	}

	// Budget large enough that nothing evicts: with zero evictions the
	// singleflight guarantee is exact, not just overwhelmingly likely.
	srv := NewServerWith(nil, Config{CacheBytes: 256 << 20, Workers: 4})
	var compressMu sync.Mutex
	compressed := make(map[ArtifactKey]int)
	srv.onCompress = func(k ArtifactKey) {
		compressMu.Lock()
		compressed[k]++
		compressMu.Unlock()
	}
	for n, data := range files {
		srv.Register(n, data)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	names := []string{"doc.xml", "app.bin", "mail.mbox", "mixed.tar"}
	schemes := []codec.Scheme{codec.Gzip, codec.Zlib}
	modes := []Mode{ModeOnDemand, ModeSelective, ModeRaw}

	const (
		clients          = 32
		fetchesPerClient = 8
	)
	var (
		wg            sync.WaitGroup
		countMu       sync.Mutex
		cacheableReqs int64
		totalReqs     int64
	)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			cli := NewClient(addr)
			defer cli.Close()
			var cacheable, total int64
			for j := 0; j < fetchesPerClient; j++ {
				name := names[rng.Intn(len(names))]
				scheme := schemes[rng.Intn(len(schemes))]
				mode := modes[rng.Intn(len(modes))]
				got, _, err := cli.Fetch(name, scheme, mode)
				if err != nil {
					errs[i] = fmt.Errorf("fetch %s/%v/%v: %w", name, scheme, mode, err)
					return
				}
				if checksum.CRC32(got) != wantCRC[name] || len(got) != len(files[name]) {
					errs[i] = fmt.Errorf("%s/%v/%v: content corrupted", name, scheme, mode)
					return
				}
				total++
				if mode != ModeRaw {
					cacheable++
				}
			}
			countMu.Lock()
			cacheableReqs += cacheable
			totalReqs += total
			countMu.Unlock()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	waitServed(t, srv, totalReqs)
	st := srv.Stats()

	// (b) singleflight: at most one compression per key, and never more
	// keys than the (file, scheme, policy) product.
	compressMu.Lock()
	distinctKeys := len(compressed)
	for k, n := range compressed {
		if n != 1 {
			t.Errorf("key %+v compressed %d times, want exactly 1", k, n)
		}
	}
	compressMu.Unlock()
	if max := int64(len(names) * len(schemes) * 2); int64(distinctKeys) > max {
		t.Errorf("%d distinct keys compressed, want <= %d", distinctKeys, max)
	}
	if st.Compressions != int64(distinctKeys) {
		t.Errorf("Compressions = %d, want %d (one per distinct key)", st.Compressions, distinctKeys)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions (%d) under a 256 MiB budget", st.Evictions)
	}

	// (c) counters reconcile with observed traffic.
	if st.CacheHits+st.CacheMisses != cacheableReqs {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d cacheable requests",
			st.CacheHits, st.CacheMisses, st.CacheHits+st.CacheMisses, cacheableReqs)
	}
	if st.Compressions+st.Coalesced != st.CacheMisses {
		t.Errorf("compressions(%d)+coalesced(%d) != misses(%d)",
			st.Compressions, st.Coalesced, st.CacheMisses)
	}
	if st.Requests != totalReqs {
		t.Errorf("Requests = %d, want %d", st.Requests, totalReqs)
	}
	// Each client's fetches share its one kept connection.
	if st.ConnsTotal != clients {
		t.Errorf("ConnsTotal = %d, want %d", st.ConnsTotal, clients)
	}
	if st.ConnsActive != 0 {
		t.Errorf("ConnsActive = %d after drain, want 0", st.ConnsActive)
	}
	if st.Errors != 0 {
		t.Errorf("server recorded %d errors", st.Errors)
	}
	if st.BytesServedRaw == 0 || st.BytesServedCompressed == 0 {
		t.Errorf("served bytes raw=%d compressed=%d, want both nonzero",
			st.BytesServedRaw, st.BytesServedCompressed)
	}
	var latTotal int64
	for _, b := range st.Latency {
		latTotal += b.Count
	}
	if latTotal != totalReqs {
		t.Errorf("latency histogram holds %d observations, want %d", latTotal, totalReqs)
	}
}

// TestServerBusySheds drives more simultaneous connections than MaxConns
// allows and checks that the overflow is refused with ErrBusy, that served
// requests still verify, and that the rejection is counted.
func TestServerBusySheds(t *testing.T) {
	srv := NewServerWith(nil, Config{MaxConns: 2, Workers: 1})
	data := workload.Generate(workload.ClassXML, 400_000, 7)
	srv.Register("doc.xml", data)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const attempts = 24
	var wg sync.WaitGroup
	var busy, ok, other int64
	var mu sync.Mutex
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := NewClient(addr).Fetch("doc.xml", codec.Gzip, ModeOnDemand)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if checksum.CRC32(got) != checksum.CRC32(data) {
					other++
				} else {
					ok++
				}
			case errors.Is(err, ErrBusy):
				busy++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("%d fetches failed with unexpected errors or corruption", other)
	}
	if ok == 0 {
		t.Fatal("no fetch succeeded under the connection cap")
	}
	st := srv.Stats()
	if st.ConnsRejected != busy {
		t.Errorf("ConnsRejected = %d, clients saw %d ErrBusy", st.ConnsRejected, busy)
	}
	if busy+ok != attempts {
		t.Errorf("busy(%d)+ok(%d) != %d attempts", busy, ok, attempts)
	}
}

// TestCloseDrainsInflightTransfers starts a large on-demand fetch and
// closes the server mid-flight: the fetch must complete intact (graceful
// drain), not be cut off.
func TestCloseDrainsInflightTransfers(t *testing.T) {
	srv := NewServerWith(nil, Config{Workers: 2})
	data := workload.Generate(workload.ClassSource, 1_500_000, 5)
	srv.Register("big.src", data)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	srv.onCompress = func(ArtifactKey) { close(started) }

	type result struct {
		crc uint32
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		got, _, err := NewClient(addr).Fetch("big.src", codec.Gzip, ModeOnDemand)
		resCh <- result{checksum.CRC32(got), err}
	}()

	<-started // compression (and hence the response) is in flight
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight fetch aborted by Close: %v", res.err)
	}
	if res.crc != checksum.CRC32(data) {
		t.Fatal("in-flight fetch corrupted by Close")
	}
}
