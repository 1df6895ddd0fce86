package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/obs/export"
	"repro/internal/proxy"
	"repro/internal/selective"
)

// Config wires one proxy server into a cluster.
type Config struct {
	// Self is this node's ID; Nodes is the full ring membership (must
	// include Self). Membership is static for the node's lifetime —
	// rebalancing means building a new Node over a new Ring.
	Self  string
	Nodes []string
	// Replicas is how many ring successors a hot key's artifact is pushed
	// to. 0 disables replication.
	Replicas int
	// HotK sizes the top-K admission sketch: a peer-fetched artifact is
	// cached locally (and an owned artifact replicated) only while its key
	// ranks in the node's top HotK keys with at least two accesses. 0
	// disables admission and replication.
	HotK int
	// Dial opens a transport connection to a peer node ID: simnet inside
	// the harness, TCP in proxyd.
	Dial func(node string) (net.Conn, error)
	// Server is the proxy this node fronts. The node installs its
	// peer-fetch hook on it; the caller keeps ownership and lifecycle.
	Server *proxy.Server
	// Clock supplies deadlines for peer I/O; nil selects the host clock.
	Clock proxy.WallClock
	// Timeout bounds one peer exchange end to end. 0 selects 30s.
	Timeout time.Duration
	// Events, when set, receives one wide event per peer fetch this node
	// issues (span "peer-fetch", Node/Peer filled in).
	Events *export.Sink
	// OnCompress, when set, observes every artifact compressed on this
	// node — the cluster-wide at-most-one-compression-per-key oracle hook.
	OnCompress func(proxy.ArtifactKey)
}

// Node is one cluster member: it owns the ring view, serves the PXY-P
// peer listener, and hooks the proxy server's miss path so cache misses
// for keys owned elsewhere fetch the finished artifact instead of
// recompressing.
type Node struct {
	cfg  Config
	ring *Ring

	mu         sync.Mutex
	sketch     *Sketch
	replicated map[string]bool

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewNode builds a node and installs its hooks on cfg.Server. Call Serve
// to start the peer listener, then let the proxy accept client traffic.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" || cfg.Server == nil || cfg.Dial == nil {
		return nil, errors.New("cluster: Config needs Self, Server and Dial")
	}
	ring := NewRing(cfg.Nodes, 0)
	if !slices.Contains(ring.Nodes(), cfg.Self) {
		return nil, fmt.Errorf("cluster: self %q not in membership %v", cfg.Self, cfg.Nodes)
	}
	if cfg.Clock == nil {
		cfg.Clock = proxy.SystemClock{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	n := &Node{
		cfg:        cfg,
		ring:       ring,
		sketch:     NewSketch(cfg.HotK),
		replicated: make(map[string]bool),
		closed:     make(chan struct{}),
	}
	cfg.Server.SetPeerFetch(n.PeerFetch)
	if cfg.OnCompress != nil {
		cfg.Server.SetOnCompress(cfg.OnCompress)
	}
	return n, nil
}

// Ring exposes the node's ring view (for tests and per-node reporting).
func (n *Node) Ring() *Ring { return n.ring }

// Serve starts the PXY-P peer listener on ln. Like the proxy's accept
// loop, it runs until Close.
func (n *Node) Serve(ln net.Listener) {
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
}

// Close stops the peer listener and waits for in-flight peer exchanges.
// The proxy server it fronts is closed by its owner, not here.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.closed)
		if n.ln != nil {
			err = n.ln.Close()
		}
		n.wg.Wait()
	})
	return err
}

// PeerFetch is the proxy server's miss-path hook: route the key on the
// ring, and fetch the finished artifact from its owner when that is not
// us. A fetched artifact is admitted into the local cache only while the
// key is hot. Every failure degrades to ErrOwnedLocally-style local
// compression at the caller; no error here ever reaches a client.
func (n *Node) PeerFetch(key proxy.ArtifactKey) ([]selective.Block, error) {
	ks := KeyString(key)
	owner := n.ring.Owner(ks)
	if owner == "" || owner == n.cfg.Self {
		return nil, proxy.ErrOwnedLocally
	}
	start := n.cfg.Clock.Now()
	blocks, err := n.exchange(owner, peerRequest{Op: peerOpFetch, Key: key}, nil)
	if n.cfg.Events != nil {
		e := export.Event{
			Span:    "peer-fetch",
			Name:    key.Name,
			Scheme:  key.Scheme.String(),
			Outcome: "ok",
			DurNS:   n.cfg.Clock.Now().Sub(start).Nanoseconds(),
			Node:    n.cfg.Self,
			Peer:    owner,
		}
		if err != nil {
			e.Outcome = "err"
		} else {
			e.WireBytes = 5 + proxy.BlockHeaderLen // status + end frame
			e.Blocks = len(blocks)
			for _, b := range blocks {
				e.RawBytes += int64(b.RawLen)
				e.WireBytes += int64(proxy.BlockHeaderLen + len(b.Payload))
				if b.Compressed {
					e.BlocksCompressed++
				}
			}
		}
		n.cfg.Events.Record(e)
	}
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.sketch.Add(ks)
	hot := n.sketch.Hot(ks)
	n.mu.Unlock()
	if hot {
		n.cfg.Server.AdmitArtifact(key, blocks)
	}
	return blocks, nil
}

// exchange runs one PXY-P exchange with peer on a connection of its own:
// the request frame, body after it when the request is a put, the status
// frame — an error unless it says OK — and, for a fetch, the artifact.
func (n *Node) exchange(peer string, req peerRequest, body []selective.Block) ([]selective.Block, error) {
	conn, err := n.cfg.Dial(peer)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(n.cfg.Clock.Now().Add(n.cfg.Timeout))
	if err := writePeerRequest(conn, req); err != nil {
		return nil, err
	}
	if req.Op == peerOpPut {
		if err := writeArtifact(conn, body); err != nil {
			return nil, err
		}
	}
	status, err := readPeerStatus(conn)
	switch {
	case err != nil:
		return nil, err
	case status == peerStatusNotOwner:
		return nil, errNotOwner
	case status == peerStatusStale:
		return nil, proxy.ErrStaleGeneration
	case status == peerStatusNotFound:
		return nil, proxy.ErrNotFound
	case status != peerStatusOK:
		return nil, fmt.Errorf("%w: status %#x", ErrPeerProtocol, status)
	case req.Op != peerOpFetch:
		return nil, nil
	}
	return readArtifact(conn)
}

// Register stores content on the local proxy and pushes the resulting
// generation bump to every other ring member, so every node's floor rises
// and stale artifacts become uncacheable everywhere. Best-effort: a node
// that misses it serves ErrStaleGeneration to peer fetches until its own
// registration catches up, which requesters degrade from by compressing
// locally.
func (n *Node) Register(name string, content []byte) {
	n.cfg.Server.Register(name, content)
	gen, _ := n.cfg.Server.Generation(name)
	for _, peer := range n.ring.Nodes() {
		if peer != n.cfg.Self {
			_, _ = n.exchange(peer, peerRequest{Op: peerOpInval, Key: proxy.ArtifactKey{Name: name, Gen: gen}}, nil)
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			n.handle(conn)
		}()
	}
}

// handle serves one PXY-P exchange.
func (n *Node) handle(conn net.Conn) {
	_ = conn.SetDeadline(n.cfg.Clock.Now().Add(n.cfg.Timeout))
	req, err := readPeerRequest(conn)
	if err != nil {
		return
	}
	switch req.Op {
	case peerOpFetch:
		n.handleFetch(conn, req.Key)
	case peerOpPut:
		blocks, err := readArtifact(conn)
		if err != nil {
			return
		}
		// The cache's generation floor silently rejects stale pushes.
		n.cfg.Server.AdmitArtifact(req.Key, blocks)
		_ = writePeerStatus(conn, peerStatusOK)
	case peerOpInval:
		n.cfg.Server.SyncGeneration(req.Key.Name, req.Key.Gen)
		_ = writePeerStatus(conn, peerStatusOK)
	default:
		_ = writePeerStatus(conn, peerStatusError)
	}
}

// handleFetch serves an artifact to a peer: from the local cache when we
// hold a replica, by building (cache + singleflight + worker pool) when
// we own the key, and with a not-owner refusal otherwise — the requester
// then compresses locally, so ownership disagreement during membership
// changes can never loop a request around the ring.
func (n *Node) handleFetch(conn net.Conn, key proxy.ArtifactKey) {
	ks := KeyString(key)
	if n.ring.Owner(ks) != n.cfg.Self {
		if blocks, ok := n.cfg.Server.CachedArtifact(key); ok {
			if writePeerStatus(conn, peerStatusOK) == nil {
				_ = writeArtifact(conn, blocks)
			}
			return
		}
		_ = writePeerStatus(conn, peerStatusNotOwner)
		return
	}
	blocks, err := n.cfg.Server.Artifact(key)
	switch {
	case err == nil:
	case errors.Is(err, proxy.ErrStaleGeneration):
		_ = writePeerStatus(conn, peerStatusStale)
		return
	case errors.Is(err, proxy.ErrNotFound):
		_ = writePeerStatus(conn, peerStatusNotFound)
		return
	default:
		_ = writePeerStatus(conn, peerStatusError)
		return
	}
	if writePeerStatus(conn, peerStatusOK) == nil {
		_ = writeArtifact(conn, blocks)
	}
	n.maybeReplicate(ks, key, blocks)
}

// maybeReplicate counts a peer-serve of an owned key and, the first time
// the key turns hot, pushes its artifact to the ring successors.
func (n *Node) maybeReplicate(ks string, key proxy.ArtifactKey, blocks []selective.Block) {
	if n.cfg.Replicas <= 0 || n.cfg.HotK <= 0 {
		return
	}
	n.mu.Lock()
	n.sketch.Add(ks)
	push := n.sketch.Hot(ks) && !n.replicated[ks]
	if push {
		n.replicated[ks] = true
	}
	n.mu.Unlock()
	if !push {
		return
	}
	for _, succ := range n.ring.Successors(ks, n.cfg.Replicas) {
		// Best-effort, as an invalidation is: a successor that misses the
		// push serves the key as any non-owner would.
		_, _ = n.exchange(succ, peerRequest{Op: peerOpPut, Key: key}, blocks)
	}
}
