package proxy

import (
	"errors"

	"repro/internal/codec"
	"repro/internal/selective"
)

// This file is the server's cluster surface: the hooks and artifact
// accessors internal/cluster wires a consistent-hash ring of proxies
// through. The server itself knows nothing about rings or peers — it
// exposes "consult a peer on a miss" (SetPeerFetch), "observe every
// compression" (SetOnCompress), and generation-aware artifact access
// (Artifact / CachedArtifact / AdmitArtifact / SyncGeneration), and the
// cluster node composes them into peer fetch, hot-key replication and
// ring-wide invalidation.

// ArtifactKey identifies one compressed artifact cluster-wide: a named
// file at a registration generation, compressed under a scheme and a
// decision-policy fingerprint. It is the one key the server's store, its
// hooks and the consistent-hash ring all use.
type ArtifactKey struct {
	Name   string
	Gen    uint64
	Scheme codec.Scheme
	FP     string
}

// ErrOwnedLocally is returned by a PeerFetchFunc when the ring places the
// key on this node: the caller should compress locally, it IS the owner.
var ErrOwnedLocally = errors.New("proxy: artifact key owned locally")

// ErrStaleGeneration is returned by Artifact when the requested
// generation does not match this node's current generation for the file —
// the requester's view of the ring is behind (or ahead of) an
// invalidation that is still propagating.
var ErrStaleGeneration = errors.New("proxy: stale artifact generation")

// PeerFetchFunc fetches the finished compressed artifact for key from its
// ring owner. A nil error means blocks is the complete artifact;
// ErrOwnedLocally means this node owns the key; any other error degrades
// the miss to local compression (never to a client-visible failure).
type PeerFetchFunc func(key ArtifactKey) ([]selective.Block, error)

// SetPeerFetch installs the peer-fetch consult on the miss path. Must be
// called before the server starts accepting traffic.
//
// On a ledger clock (the virtual testbed's: the probe openArtifact makes)
// a follower then polls in virtual time for its whole flight instead of
// reading behind the builder: blocked in real time it would hold a ledger
// token the leader needs released while it parks on peer-fetch I/O, and a
// build takes no virtual time, so the wait costs it nothing. With no peer
// hook no leader parks, and no follower polls.
func (s *Server) SetPeerFetch(f PeerFetchFunc) {
	s.peerFetch = f
	if _, ok := s.clock.(interface{ Go(func()) }); ok {
		s.store.poll = s.clock
	}
}

// SetOnCompress installs an observer called for every artifact actually
// compressed on this node (cluster replication and the at-most-one-
// compression-per-key oracle hook). Must be set before traffic.
func (s *Server) SetOnCompress(f func(ArtifactKey)) { s.onCompress = f }

// DeciderFP returns the fingerprint of this server's selective-mode
// decision policy — the FP a cluster node advertises for selective keys.
func (s *Server) DeciderFP() string { return s.deciderFP }

// Generation returns the server's current generation for name.
func (s *Server) Generation(name string) (uint64, bool) {
	f, ok := s.store.file(name)
	return f.gen, ok
}

// SyncGeneration raises this node's generation for name to at least gen
// and invalidates cached artifacts below it. Cluster invalidation
// broadcasts land here; it never lowers a generation (a stale broadcast
// arriving late is a no-op).
func (s *Server) SyncGeneration(name string, gen uint64) { s.store.syncGeneration(name, gen) }

// deciderFor maps a policy fingerprint back to a decider this server can
// run — the fixed policy, or its own configured selective decider.
func (s *Server) deciderFor(fp string) (selective.Decider, bool) {
	switch fp {
	case fpAlways:
		return selective.AlwaysCompress{}, true
	case s.deciderFP:
		return s.decider, true
	}
	return nil, false
}

// Artifact returns the finished compressed artifact for key, building it
// (cache + singleflight + worker pool, all counters live) when absent.
// This is what a ring owner runs to serve a peer fetch: the peer-fetch
// consult is disabled on this path, so ownership confusion during ring
// churn can never forward a request in a cycle.
func (s *Server) Artifact(key ArtifactKey) ([]selective.Block, error) {
	f, ok := s.store.file(key.Name)
	if !ok {
		return nil, ErrNotFound
	}
	if f.gen != key.Gen {
		return nil, ErrStaleGeneration
	}
	d, ok := s.deciderFor(key.FP)
	if !ok {
		return nil, errors.New("proxy: unknown decider fingerprint " + key.FP)
	}
	a, err := s.openArtifact(key, f.content, d, nil, false)
	if err != nil {
		return nil, err
	}
	return a.whole()
}

// CachedArtifact returns key's artifact if (and only if) it is already in
// the local cache, touching no hit/miss counters: the probe a non-owner
// uses to serve a peer fetch from a replicated copy.
func (s *Server) CachedArtifact(key ArtifactKey) ([]selective.Block, bool) { return s.store.get(key) }

// AdmitArtifact inserts a peer-built artifact into the local cache (hot-
// key admission and replication pushes). An artifact of a generation the
// file has left behind is silently refused.
func (s *Server) AdmitArtifact(key ArtifactKey, blocks []selective.Block) { s.store.admit(key, blocks) }
