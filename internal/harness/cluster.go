package harness

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/proxy"
	"repro/internal/simnet"
)

// nodeAddr / peerAddr are the simnet listener names of server k's client
// side and of ring member id's PXY-P side.
func nodeAddr(k int) string     { return fmt.Sprintf("proxy%d", k) }
func peerAddr(id string) string { return "peer:" + id }

// startServers builds and starts a run's servers, server k listening at
// nodeAddr(k) on nw: a single proxy, or — when Scenario.Nodes > 0 — that
// many proxies joined into a consistent-hash ring by internal/cluster,
// each behind a shared transmit line at the client link rate (a node's
// NIC serializes its responses, so aggregate serve throughput honestly
// scales with node count). The ring's PXY-P backhaul is a network of its
// own over the same clock, so the WLAN's schedule never paces it. The
// single-server shape gets no transmit line and no peer hook (so no
// follower poll), and keeps the pre-cluster timeline. compLog is the
// ring-wide compression ledger the per-key oracle reads once every server
// is closed: (key → nodes that compressed it).
func startServers(s Scenario, clock *simnet.Clock, nw *simnet.Network, corpus []corpusFile) (
	servers []*proxy.Server, nodes []*cluster.Node, compLog map[string][]string, err error) {
	var compMu sync.Mutex
	compLog = make(map[string][]string)
	ids := make([]string, s.Nodes)
	for k := range ids {
		ids[k] = fmt.Sprintf("n%d", k)
	}
	peerLink := s.PeerLink
	// One fixed seed for every peer dial: Dial seeds each endpoint's
	// jitter rng from the link seed alone, so every peer connection
	// replays the same draw sequence no matter how dials interleave.
	peerLink.Seed = mix(s.Seed, 5000)
	backhaul := simnet.NewNetwork(clock, peerLink)
	dial := func(peer string) (net.Conn, error) {
		return backhaul.Dial(peerAddr(peer))
	}

	for k := 0; k < max(s.Nodes, 1); k++ {
		// Each server gets its own decider instance so per-node metric
		// registries never share counters.
		srv := proxy.NewServerWith(buildDecider(s), proxy.Config{
			Clock: clock,
			// Never shed: ConnsTotal == Σ dials must hold exactly, and a
			// busy-shed path would couple one client's timeline to another's.
			MaxConns: s.Clients + 2,
		})
		for _, f := range corpus {
			srv.Register(f.name, f.content)
		}
		ln, err := nw.Listen(nodeAddr(k))
		if err != nil {
			return nil, nil, nil, err
		}
		if s.Nodes > 0 {
			id := ids[k]
			n, err := cluster.NewNode(cluster.Config{
				Self:     id,
				Nodes:    ids,
				Replicas: s.Replicas,
				HotK:     s.HotK,
				Dial:     dial,
				Server:   srv,
				Clock:    clock,
				Timeout:  s.Timeout,
				OnCompress: func(key proxy.ArtifactKey) {
					compMu.Lock()
					compLog[cluster.KeyString(key)] = append(compLog[cluster.KeyString(key)], id)
					compMu.Unlock()
				},
			})
			if err != nil {
				return nil, nil, nil, err
			}
			pln, err := backhaul.Listen(peerAddr(id))
			if err != nil {
				return nil, nil, nil, err
			}
			n.Serve(pln)
			nodes = append(nodes, n)
			// The node's transmitter: all of this node's responses share one
			// line at the client link rate, so a single node cannot serve N
			// clients at N times its radio's capacity.
			if err := nw.SetLine(nodeAddr(k)); err != nil {
				return nil, nil, nil, err
			}
		}
		srv.Serve(ln)
		servers = append(servers, srv)
	}
	return servers, nodes, compLog, nil
}

// checkClusterCompressions is the tentpole oracle: cluster-wide, an
// artifact key is compressed at most once — the ring owner builds it,
// everyone else peer-fetches or coalesces. Churn relaxes the bound to one
// per node: a requester racing a generation bump can find the owner
// already ahead (ErrStaleGeneration) and degrade to compressing its stale
// generation locally, and in the worst case every node does so once.
func (r *Report) checkClusterCompressions(compLog map[string][]string) {
	limit := 1
	if r.Scenario.Churn > 0 {
		limit = r.Scenario.Nodes
	}
	var total int64
	keys := make([]string, 0, len(compLog))
	for k := range compLog {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nodes := compLog[k]
		total += int64(len(nodes))
		if len(nodes) > limit {
			r.violate("cluster: key %q compressed %d times (on %v), limit %d",
				k, len(nodes), nodes, limit)
		}
	}
	if total != r.Stats.Compressions {
		r.violate("cluster: compression ledger saw %d compressions, counters say %d",
			total, r.Stats.Compressions)
	}
}
