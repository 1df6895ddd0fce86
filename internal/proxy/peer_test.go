package proxy

// Unit tests for the server's cluster surface (peer.go): the peer-fetch
// consult on the miss path, ring-routing and degradation counters, the
// owner-side Artifact builder, the cached/admit accessors replication
// uses, and generation synchronization. internal/cluster composes these
// into a ring; these tests pin each hook's contract in isolation with a
// scripted PeerFetchFunc.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/selective"
	"repro/internal/workload"
)

// peerServer builds a server with one registered file and a scripted
// peer-fetch hook, serving on a real loopback listener.
func peerServer(t *testing.T, name string, content []byte, pf PeerFetchFunc) (*Server, string) {
	t.Helper()
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	srv.Register(name, content)
	srv.SetPeerFetch(pf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// TestPeerFetchServesRemoteArtifact: when the hook supplies the finished
// artifact, the miss is served from it — byte-exact, no local
// compression, and the peer/ring counters say what happened.
func TestPeerFetchServesRemoteArtifact(t *testing.T) {
	content := workload.Generate(workload.ClassMail, 60000, 7)
	c := codec.MustNew(codec.Gzip, 0)
	enc, err := selective.Encode(content, c, selective.AlwaysCompress{})
	if err != nil {
		t.Fatal(err)
	}
	var asked []ArtifactKey
	srv, addr := peerServer(t, "m.txt", content, func(key ArtifactKey) ([]selective.Block, error) {
		asked = append(asked, key)
		return enc.Blocks, nil
	})

	got, _, err := NewClient(addr).Fetch("m.txt", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("peer-served payload differs from registered content")
	}
	if len(asked) != 1 {
		t.Fatalf("peer hook consulted %d times, want 1", len(asked))
	}
	want := ArtifactKey{Name: "m.txt", Gen: 1, Scheme: codec.Gzip, FP: "always"}
	if asked[0] != want {
		t.Fatalf("peer hook asked for %+v, want %+v", asked[0], want)
	}
	st := srv.Stats()
	if st.Compressions != 0 {
		t.Fatalf("local compressions = %d, want 0 (artifact came from the peer)", st.Compressions)
	}
	if st.PeerFetches != 1 || st.PeerFetchErrors != 0 {
		t.Fatalf("peer counters = %d fetches / %d errors, want 1 / 0", st.PeerFetches, st.PeerFetchErrors)
	}
	if st.RingRemoteHits != 1 || st.RingOwnerHits != 0 {
		t.Fatalf("ring routing = %d owner / %d remote, want 0 / 1", st.RingOwnerHits, st.RingRemoteHits)
	}

	// The server does NOT cache what the hook returned — admission is the
	// cluster node's hot-key-gated decision (AdmitArtifact), not the
	// dataplane's. A second miss consults the hook again.
	if _, _, err := NewClient(addr).Fetch("m.txt", codec.Gzip, ModeOnDemand); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 {
		t.Fatalf("second miss consulted the hook %d times total, want 2", len(asked))
	}
	if st := srv.Stats(); st.Compressions != 0 || st.PeerFetches != 2 {
		t.Fatalf("after second miss: %d compressions / %d peer fetches, want 0 / 2", st.Compressions, st.PeerFetches)
	}
}

// TestPeerFetchOwnedLocallyCompressesHere: ErrOwnedLocally routes the miss
// to local compression and counts an owner hit, not a peer fetch.
func TestPeerFetchOwnedLocallyCompressesHere(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 40000, 3)
	srv, addr := peerServer(t, "p.html", content, func(ArtifactKey) ([]selective.Block, error) {
		return nil, ErrOwnedLocally
	})
	got, _, err := NewClient(addr).Fetch("p.html", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("payload mismatch")
	}
	st := srv.Stats()
	if st.Compressions != 1 {
		t.Fatalf("compressions = %d, want 1", st.Compressions)
	}
	if st.PeerFetches != 0 || st.PeerFetchErrors != 0 {
		t.Fatalf("owned-locally miss touched peer counters: %d / %d", st.PeerFetches, st.PeerFetchErrors)
	}
	if st.RingOwnerHits != 1 || st.RingRemoteHits != 0 {
		t.Fatalf("ring routing = %d owner / %d remote, want 1 / 0", st.RingOwnerHits, st.RingRemoteHits)
	}
}

// TestPeerFetchErrorDegradesToLocal: any other hook error must degrade to
// local compression — the client sees a normal successful fetch, and the
// failure shows up only in PeerFetchErrors.
func TestPeerFetchErrorDegradesToLocal(t *testing.T) {
	content := workload.Generate(workload.ClassSource, 50000, 11)
	srv, addr := peerServer(t, "s.c", content, func(ArtifactKey) ([]selective.Block, error) {
		return nil, errors.New("owner unreachable")
	})
	got, _, err := NewClient(addr).Fetch("s.c", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatalf("peer failure leaked to the client: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("payload mismatch")
	}
	st := srv.Stats()
	if st.Compressions != 1 {
		t.Fatalf("compressions = %d, want 1 (degraded to local)", st.Compressions)
	}
	if st.PeerFetchErrors != 1 || st.PeerFetches != 0 {
		t.Fatalf("peer counters = %d fetches / %d errors, want 0 / 1", st.PeerFetches, st.PeerFetchErrors)
	}
}

// TestOnCompressObserver: every artifact actually compressed locally is
// reported exactly once with its full key; cache hits are not.
func TestOnCompressObserver(t *testing.T) {
	content := workload.Generate(workload.ClassXML, 30000, 5)
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	srv.Register("d.xml", content)
	var seen []ArtifactKey
	srv.SetOnCompress(func(k ArtifactKey) { seen = append(seen, k) })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := NewClient(addr).Fetch("d.xml", codec.Gzip, ModeOnDemand); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 1 {
		t.Fatalf("observer fired %d times for one compression, want 1", len(seen))
	}
	want := ArtifactKey{Name: "d.xml", Gen: 1, Scheme: codec.Gzip, FP: "always"}
	if seen[0] != want {
		t.Fatalf("observer saw %+v, want %+v", seen[0], want)
	}
	srv.SetOnCompress(nil) // must not panic and must clear the hook
}

// TestArtifactOwnerPath: Artifact builds (and caches) the artifact the way
// an owner serves a peer fetch, and rejects unknown files, mismatched
// generations and foreign decider fingerprints.
func TestArtifactOwnerPath(t *testing.T) {
	content := workload.Generate(workload.ClassMail, 45000, 9)
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	srv.Register("a.txt", content)
	if fp := srv.DeciderFP(); fp == "" {
		t.Fatal("server has no decider fingerprint")
	}

	key := ArtifactKey{Name: "a.txt", Gen: 1, Scheme: codec.Gzip, FP: "always"}
	blocks, err := srv.Artifact(key)
	if err != nil {
		t.Fatal(err)
	}
	built := &selective.Encoded{Scheme: codec.Gzip, Blocks: blocks}
	dec, err := selective.Decode(built.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, content) {
		t.Fatal("artifact does not round-trip to the registered content")
	}
	if got, ok := srv.CachedArtifact(key); !ok || len(got) != len(blocks) {
		t.Fatal("built artifact did not land in the cache")
	}

	if _, err := srv.Artifact(ArtifactKey{Name: "nope", Gen: 1, Scheme: codec.Gzip, FP: "always"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown file: got %v, want ErrNotFound", err)
	}
	if _, err := srv.Artifact(ArtifactKey{Name: "a.txt", Gen: 99, Scheme: codec.Gzip, FP: "always"}); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("wrong generation: got %v, want ErrStaleGeneration", err)
	}
	for _, fp := range []string{"martian", "never"} {
		if _, err := srv.Artifact(ArtifactKey{Name: "a.txt", Gen: 1, Scheme: codec.Gzip, FP: fp}); err == nil {
			t.Fatalf("unknown decider fingerprint %q must be rejected", fp)
		}
	}
}

// TestArtifactServesRequestPolicies: under the dynamic decider a request
// that declares a deadline class keys its selective artifact by a
// class-derived fingerprint, and its peer fetch carries that key to the
// owner. The owner, configured alike, must build it under that very
// policy for every class byte a request can carry; a key it cannot map
// fails the peer fetch and the requester compresses the key a second
// time ring-wide.
func TestArtifactServesRequestPolicies(t *testing.T) {
	content := workload.Generate(workload.ClassXML, 45000, 9)
	dyn := decider.New(decider.Config{})
	srv := NewServerWith(dyn, Config{CacheBytes: 1 << 20})
	srv.Register("a.xml", content)
	fps := map[string]bool{srv.DeciderFP(): true}
	for class := 0; class <= 4; class++ { // 4 is no class: it folds to none
		for _, budgetMJ := range []uint32{0, 50_000} {
			d, fp := dyn.ForRequest(uint8(class), budgetMJ)
			fps[fp] = true
			blocks, err := srv.Artifact(ArtifactKey{Name: "a.xml", Gen: 1, Scheme: codec.Gzip, FP: fp})
			if err != nil {
				t.Fatalf("class %d budget %d mJ: %v", class, budgetMJ, err)
			}
			want, err := selective.Encode(content, codec.MustNew(codec.Gzip, 0), d)
			if err != nil {
				t.Fatal(err)
			}
			sameBlocks(t, fp, blocks, want.Blocks)
		}
	}
	// none (the server's own), relaxed, standard, strict.
	if len(fps) != 4 {
		t.Fatalf("%d distinct fingerprints, want 4: %v", len(fps), fps)
	}
}

// TestAdmitAndSyncGeneration: AdmitArtifact installs a replica, a
// generation sync at a higher generation drops it (and a stale sync is a
// no-op), exactly the dance a ring-wide invalidation performs.
func TestAdmitAndSyncGeneration(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 35000, 13)
	c := codec.MustNew(codec.Gzip, 0)
	enc, err := selective.Encode(content, c, selective.AlwaysCompress{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	srv.Register("r.html", content)

	key := ArtifactKey{Name: "r.html", Gen: 1, Scheme: codec.Gzip, FP: "always"}
	srv.AdmitArtifact(key, enc.Blocks)
	if _, ok := srv.CachedArtifact(key); !ok {
		t.Fatal("admitted replica not visible")
	}
	if gen, ok := srv.Generation("r.html"); !ok || gen != 1 {
		t.Fatalf("Generation = %d/%v, want 1/true", gen, ok)
	}

	// A stale broadcast (same or lower generation) changes nothing.
	srv.SyncGeneration("r.html", 1)
	if gen, _ := srv.Generation("r.html"); gen != 1 {
		t.Fatalf("stale sync moved the generation to %d", gen)
	}
	// An unknown file's broadcast changes nothing either.
	srv.SyncGeneration("ghost", 5)
	if _, ok := srv.Generation("ghost"); ok {
		t.Fatal("sync invented a generation for an unregistered file")
	}

	// A real invalidation raises the floor and evicts the stale replica.
	srv.SyncGeneration("r.html", 3)
	if gen, _ := srv.Generation("r.html"); gen != 3 {
		t.Fatalf("generation = %d after sync, want 3", gen)
	}
	if _, ok := srv.CachedArtifact(key); ok {
		t.Fatal("stale-generation replica survived the invalidation")
	}
	// And admitting below the floor is silently refused.
	srv.AdmitArtifact(key, enc.Blocks)
	if _, ok := srv.CachedArtifact(key); ok {
		t.Fatal("cache accepted an artifact below its generation floor")
	}
}
