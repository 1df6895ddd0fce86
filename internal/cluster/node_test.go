package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/proxy"
)

// testCluster is a ring of proxy servers with PXY-P peer listeners over
// loopback TCP, the transport-level twin of the harness's simnet cluster.
type testCluster struct {
	nodes   map[string]*Node
	servers map[string]*proxy.Server
	addrs   map[string]string
	mu      sync.Mutex
}

func (tc *testCluster) dial(node string) (net.Conn, error) {
	tc.mu.Lock()
	addr, ok := tc.addrs[node]
	tc.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no route to departed node %q", node)
	}
	return net.Dial("tcp", addr)
}

// startCluster brings up proxies and peer listeners for members, with the
// ring built over ringView (which may include departed nodes that get no
// listener). compLog, when non-nil, receives every (node, key) compression.
func startCluster(t *testing.T, members, ringView []string, replicas, hotK int,
	compLog func(node string, key proxy.ArtifactKey)) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   make(map[string]*Node),
		servers: make(map[string]*proxy.Server),
		addrs:   make(map[string]string),
	}
	for _, id := range members {
		id := id
		srv := proxy.NewServerWith(nil, proxy.Config{CacheBytes: 8 << 20})
		cfg := Config{
			Self:     id,
			Nodes:    ringView,
			Replicas: replicas,
			HotK:     hotK,
			Dial:     tc.dial,
			Server:   srv,
		}
		if compLog != nil {
			cfg.OnCompress = func(k proxy.ArtifactKey) { compLog(id, k) }
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.Serve(ln)
		tc.mu.Lock()
		tc.nodes[id] = n
		tc.servers[id] = srv
		tc.addrs[id] = ln.Addr().String()
		tc.mu.Unlock()
		t.Cleanup(func() {
			n.Close()
			srv.Close()
		})
	}
	return tc
}

// keyOwnedBy finds a registered-file key whose ring owner is the wanted
// node, registering files on every member until one lands there.
func keyOwnedBy(t *testing.T, tc *testCluster, ring *Ring, owner string, members []string) proxy.ArtifactKey {
	t.Helper()
	for i := 0; i < 512; i++ {
		name := fmt.Sprintf("file-%03d.txt", i)
		key := proxy.ArtifactKey{Name: name, Gen: 1, Scheme: codec.Gzip, FP: "always"}
		if ring.Owner(KeyString(key)) != owner {
			continue
		}
		content := bytes.Repeat([]byte(fmt.Sprintf("content of %s; ", name)), 400)
		for _, m := range members {
			tc.servers[m].Register(name, content)
		}
		return key
	}
	t.Fatalf("no key owned by %s in 512 candidates", owner)
	return proxy.ArtifactKey{}
}

// TestPeerFetchCompressesOnceClusterWide: a fetch from a non-owner pulls
// the finished artifact from the owner; the only compression in the
// cluster runs on the owner, and repeating the fetch adds none.
func TestPeerFetchCompressesOnceClusterWide(t *testing.T) {
	members := []string{"na", "nb", "nc"}
	var mu sync.Mutex
	comps := map[string]int{}
	tc := startCluster(t, members, members, 0, 0, func(node string, k proxy.ArtifactKey) {
		mu.Lock()
		comps[node+"/"+KeyString(k)]++
		mu.Unlock()
	})
	ring := tc.nodes["na"].Ring()
	key := keyOwnedBy(t, tc, ring, "nb", members)

	blocks, err := tc.nodes["na"].PeerFetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("peer fetch returned no blocks")
	}
	want, err := tc.servers["nb"].Artifact(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(blocks) {
		t.Fatalf("peer artifact has %d blocks, owner's has %d", len(blocks), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i].Payload, blocks[i].Payload) || want[i].Compressed != blocks[i].Compressed || want[i].RawLen != blocks[i].RawLen {
			t.Fatalf("block %d differs between peer fetch and owner artifact", i)
		}
	}
	if _, err := tc.nodes["nc"].PeerFetch(key); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(comps) != 1 || comps["nb/"+KeyString(key)] != 1 {
		t.Fatalf("cluster compressions = %v, want exactly one on the owner nb", comps)
	}
}

// TestPeerFetchOwnedLocally: the hook refuses keys the ring places on
// this node, so the proxy compresses locally instead of dialing itself.
func TestPeerFetchOwnedLocally(t *testing.T) {
	members := []string{"na", "nb"}
	tc := startCluster(t, members, members, 0, 0, nil)
	ring := tc.nodes["na"].Ring()
	key := keyOwnedBy(t, tc, ring, "na", members)
	if _, err := tc.nodes["na"].PeerFetch(key); !errors.Is(err, proxy.ErrOwnedLocally) {
		t.Fatalf("PeerFetch of an owned key returned %v, want ErrOwnedLocally", err)
	}
}

// TestDepartedOwnerDegradesToLocalCompression: the ring still names a
// node that no longer answers. A real client fetch through the proxy must
// succeed anyway — the miss path eats the peer failure and compresses
// locally — and the error never surfaces to the client.
func TestDepartedOwnerDegradesToLocalCompression(t *testing.T) {
	members := []string{"na", "nb"}
	ringView := []string{"na", "nb", "ndeparted"}
	tc := startCluster(t, members, ringView, 0, 0, nil)
	ring := tc.nodes["na"].Ring()
	key := keyOwnedBy(t, tc, ring, "ndeparted", members)

	// Through the node hook directly: the dial failure propagates...
	if _, err := tc.nodes["na"].PeerFetch(key); err == nil {
		t.Fatal("PeerFetch from a departed owner succeeded")
	}
	// ...but through the full proxy miss path, the client sees success.
	srv := tc.servers["na"]
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := proxy.NewClient(addr)
	content, _, err := client.Fetch(key.Name, codec.Gzip, proxy.ModeOnDemand)
	if err != nil {
		t.Fatalf("client fetch with departed owner failed: %v", err)
	}
	if len(content) == 0 {
		t.Fatal("client got empty content")
	}
	st := srv.Stats()
	if st.PeerFetchErrors != 1 {
		t.Fatalf("PeerFetchErrors = %d, want 1", st.PeerFetchErrors)
	}
	if st.Compressions != 1 {
		t.Fatalf("Compressions = %d, want 1 (local fallback)", st.Compressions)
	}
	if st.Errors != 0 {
		t.Fatalf("client-visible errors = %d, want 0", st.Errors)
	}
}

// TestInvalidationPropagatesRingWide: a Register through the node bumps
// the generation on every member and drops stale cached artifacts, and a
// peer fetch for the stale generation is refused as stale.
func TestInvalidationPropagatesRingWide(t *testing.T) {
	members := []string{"na", "nb", "nc"}
	tc := startCluster(t, members, members, 0, 0, nil)
	ring := tc.nodes["na"].Ring()
	key := keyOwnedBy(t, tc, ring, "nb", members)

	if _, err := tc.nodes["na"].PeerFetch(key); err != nil {
		t.Fatal(err)
	}
	tc.nodes["nc"].Register(key.Name, []byte("generation two content"))

	for _, m := range members {
		gen, ok := tc.servers[m].Generation(key.Name)
		if !ok || gen != 2 {
			t.Fatalf("node %s at generation %d, want 2", m, gen)
		}
	}
	if _, ok := tc.servers["nb"].CachedArtifact(key); ok {
		t.Fatal("owner still caches the invalidated generation")
	}
	if _, err := tc.nodes["na"].PeerFetch(key); !errors.Is(err, proxy.ErrStaleGeneration) {
		t.Fatalf("stale-generation peer fetch returned %v, want ErrStaleGeneration", err)
	}
}

// TestHotKeyAdmissionAndReplication: a key fetched repeatedly turns hot —
// the requester admits it into its local cache, and the owner pushes
// replicas to its ring successors.
func TestHotKeyAdmissionAndReplication(t *testing.T) {
	members := []string{"na", "nb", "nc", "nd"}
	tc := startCluster(t, members, members, 2, 4, nil)
	ring := tc.nodes["na"].Ring()
	key := keyOwnedBy(t, tc, ring, "nb", members)
	ks := KeyString(key)

	// First access: cold everywhere.
	if _, err := tc.nodes["na"].PeerFetch(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := tc.servers["na"].CachedArtifact(key); ok {
		t.Fatal("cold key admitted into the requester cache")
	}
	// Second access: hot on both sides.
	if _, err := tc.nodes["na"].PeerFetch(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := tc.servers["na"].CachedArtifact(key); !ok {
		t.Fatal("hot key not admitted into the requester cache")
	}
	// The owner replicates after answering the fetch, so give the push a
	// moment to land.
	for _, succ := range ring.Successors(ks, 2) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok := tc.servers[succ].CachedArtifact(key); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("successor %s has no replica of the hot key", succ)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// A successor holding a replica serves it to peers even though it is
	// not the owner.
	var succ string
	for _, s := range ring.Successors(ks, 2) {
		if s != "na" {
			succ = s
			break
		}
	}
	if succ != "" {
		blocks, err := tc.nodes["na"].exchange(succ, peerRequest{Op: peerOpFetch, Key: key}, nil)
		if err != nil {
			t.Fatalf("replica fetch from successor %s failed: %v", succ, err)
		}
		if len(blocks) == 0 {
			t.Fatal("replica fetch returned no blocks")
		}
	}
}

// TestPeerWireRoundTrip: PXY-P frames survive an encode/decode cycle and
// corruption is rejected.
func TestPeerWireRoundTrip(t *testing.T) {
	key := proxy.ArtifactKey{Name: "a/b.txt", Gen: 7, Scheme: codec.Bzip2, FP: "PaperDecider{}"}
	var buf bytes.Buffer
	if err := writePeerRequest(&buf, peerRequest{Op: peerOpFetch, Key: key}); err != nil {
		t.Fatal(err)
	}
	wire := append([]byte(nil), buf.Bytes()...)
	got, err := readPeerRequest(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != peerOpFetch || got.Key != key {
		t.Fatalf("round trip got %+v", got)
	}
	// Flip a name byte: the CRC must catch it.
	wire[7] ^= 0x40
	if _, err := readPeerRequest(bytes.NewReader(wire)); err == nil {
		t.Fatal("corrupted request accepted")
	}
}
