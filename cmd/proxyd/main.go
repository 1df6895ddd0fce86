// Command proxyd runs the proxy server: it registers either a directory of
// files or the built-in synthetic corpus and serves raw, precompressed,
// on-demand and selective downloads over TCP.
//
// Usage:
//
//	proxyd -addr 127.0.0.1:7070 -corpus -scale 0.125
//	proxyd -addr 127.0.0.1:7070 -dir ./files -precompress gzip
//	proxyd -addr 127.0.0.1:7070 -corpus -cache-bytes 134217728 -workers 8
//	proxyd -addr 127.0.0.1:7070 -corpus -fault-rate 0.01 -fault-seed 42
//	proxyd -addr 127.0.0.1:7070 -corpus -admin 127.0.0.1:9090 -log-level info
//	proxyd -addr 127.0.0.1:7070 -corpus -decider dynamic -calib soak.jsonl
//	proxyd -addr 127.0.0.1:7070 -corpus -node-id a -peer-addr 127.0.0.1:7170 \
//	    -peers b=127.0.0.1:7171,c=127.0.0.1:7172 -replicas 1 -hotk 64
//
// -decider dynamic swaps the selective-mode policy from the paper's
// static Equation 6 to the queue-aware dynamic decider; -calib fits its
// energy-model coefficients from a previously exported wide-event JSONL
// stream (falling back to the static Table 1 set when the stream has no
// usable fit). Selective-mode artifacts are cached under the decider's
// fingerprint, so static and dynamic artifacts never alias.
//
// The cluster form joins a consistent-hash ring: this node plus every -peers
// entry form the membership, cache misses for artifact keys owned by a
// peer fetch the finished compressed artifact over the PXY-P protocol on
// -peer-addr instead of recompressing, and hot keys replicate to -replicas
// ring successors. Every node must be started with the same membership
// (its own ID appearing in the others' -peers lists).
//
// SIGUSR1 prints a dataplane stats snapshot (cache hits/misses,
// singleflight coalescing, bytes served, connection latency histogram);
// the same report prints at shutdown. With -admin, the same counters are
// served live over HTTP: /metrics (Prometheus text), /statsz (JSON),
// /tracez (recent request spans), /healthz, and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/selective"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "proxyd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "listen address")
		dir        = flag.String("dir", "", "serve files from this directory")
		useCorpus  = flag.Bool("corpus", false, "serve the built-in synthetic Table 2 corpus")
		scale      = flag.Float64("scale", 0.125, "corpus size scale")
		precompSch = flag.String("precompress", "", "precompress all files with this scheme (gzip, compress, bzip2, zlib)")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "compressed-artifact cache budget in bytes, one budget for the whole cache: an artifact up to this size is cached (negative disables)")
		workers    = flag.Int("workers", 0, "max concurrent compressions (0 = GOMAXPROCS)")
		maxConns   = flag.Int("max-conns", 0, "max concurrent connections (0 = 256)")
		faultRate  = flag.Float64("fault-rate", 0, "per-I/O fault probability for resets, truncations and bit-flips (0 disables injection)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		adminAddr  = flag.String("admin", "", "serve the admin plane (/metrics, /statsz, /tracez, /eventsz, /healthz, /debug/pprof) on this address")
		logLevel   = flag.String("log-level", "warn", "structured log level: debug, info, warn, error")
		eventsPath = flag.String("events", "", "write serve-side wide events as JSONL to this file")
		deciderPol = flag.String("decider", "static", "selective-mode decision policy: static (Eq. 6) or dynamic (queue-aware energy model)")
		calibPath  = flag.String("calib", "", "wide-event JSONL stream to fit the dynamic decider's coefficients from (requires -decider dynamic)")
		calibDev   = flag.String("calib-device", "", "device class to take from -calib (default: first fitted device)")
		nodeID     = flag.String("node-id", "", "this node's cluster ID (enables cluster mode)")
		peerAddr   = flag.String("peer-addr", "", "listen address for the PXY-P peer protocol (required with -node-id)")
		peersFlag  = flag.String("peers", "", "comma-separated id=host:port peer list forming the ring with this node")
		replicas   = flag.Int("replicas", 0, "replicate hot artifacts to this many ring successors")
		hotK       = flag.Int("hotk", 64, "hot-key admission budget: peer-fetched artifacts are cached only while in the top-K")
	)
	flag.Parse()

	logger, err := repro.NewStructuredLogger(os.Stderr, *logLevel)
	if err != nil {
		return err
	}
	// The sink always exists so /eventsz serves the recent-event ring even
	// without -events; a file just adds the JSONL drain.
	var eventsFile *os.File
	if *eventsPath != "" {
		eventsFile, err = os.Create(*eventsPath)
		if err != nil {
			return err
		}
	}
	var sinkWriter io.Writer
	if eventsFile != nil {
		sinkWriter = eventsFile
	}
	sink := repro.NewEventSink(sinkWriter, 0, 0)
	cfg := repro.ProxyConfig{
		CacheBytes: *cacheBytes,
		Workers:    *workers,
		MaxConns:   *maxConns,
		Logger:     logger,
		Events:     sink,
	}
	// The static policy leaves dec a nil interface, which selects Eq. 6: a
	// nil *DynamicDecider in it would not be nil.
	var dec selective.Decider
	switch *deciderPol {
	case "", "static":
		if *calibPath != "" {
			return fmt.Errorf("-calib requires -decider dynamic")
		}
	case "dynamic":
		// The dynamic decider: calibrated coefficients when -calib fits,
		// the static Table 1 set otherwise (the documented calib → static
		// fallback order). The queue hook is left unset so the server binds
		// its live compression-queue gauge at construction.
		dcfg := repro.DynamicDeciderConfig{}
		if *calibPath != "" {
			fit, err := repro.LoadCalibrationFile(*calibPath, *calibDev)
			if err != nil {
				return err
			}
			params, applied := repro.ParamsFromCalibration(fit)
			if applied {
				dcfg.Base = params
				dcfg.Calibrated = true
				fmt.Printf("decider: calibrated from %s (device %s, max coefficient deviation %.2e)\n",
					*calibPath, fit.Device, fit.MaxCoefRelErr())
			} else {
				fmt.Printf("decider: calibration %s had no usable fit; falling back to static Table 1 coefficients\n", *calibPath)
			}
		}
		d := repro.NewDynamicDecider(dcfg)
		dec = d
		fmt.Printf("decider: %s\n", d.Fingerprint())
	default:
		return fmt.Errorf("-decider %q: want static or dynamic", *deciderPol)
	}
	if *faultRate > 0 {
		plan := repro.FaultPlan{
			Seed:         *faultSeed,
			DelayProb:    5 * *faultRate,
			FragmentProb: 20 * *faultRate,
			ResetProb:    *faultRate,
			TruncateProb: *faultRate,
			BitFlipProb:  *faultRate,
		}
		cfg.WrapConn = plan.Wrapper()
		fmt.Printf("fault injection armed: rate %g, seed %d\n", *faultRate, *faultSeed)
	}
	srv := repro.NewProxyServerWith(dec, cfg)
	count := 0
	switch {
	case *dir != "":
		entries, err := os.ReadDir(*dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dir, e.Name()))
			if err != nil {
				return err
			}
			srv.Register(e.Name(), data)
			count++
		}
	case *useCorpus:
		for _, s := range repro.ScaledCorpus(*scale) {
			srv.Register(s.Name, s.Generate())
			count++
		}
	default:
		return fmt.Errorf("pass -dir or -corpus")
	}

	if *precompSch != "" {
		scheme, err := repro.ParseScheme(*precompSch)
		if err != nil {
			return err
		}
		for _, name := range srv.Files() {
			if err := srv.Precompress(name, scheme); err != nil {
				return fmt.Errorf("precompress %s: %w", name, err)
			}
		}
		fmt.Printf("precompressed %d files with %v\n", count, scheme)
	}

	var node *repro.ClusterNode
	if *nodeID != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		if *peerAddr == "" {
			return fmt.Errorf("-node-id requires -peer-addr")
		}
		members := []string{*nodeID}
		for id := range peers {
			members = append(members, id)
		}
		node, err = repro.NewClusterNode(repro.ClusterConfig{
			Self:     *nodeID,
			Nodes:    members,
			Replicas: *replicas,
			HotK:     *hotK,
			Server:   srv,
			Events:   sink,
			Dial: func(id string) (net.Conn, error) {
				a, ok := peers[id]
				if !ok {
					return nil, fmt.Errorf("no address for peer %q", id)
				}
				return net.DialTimeout("tcp", a, 5*time.Second)
			},
		})
		if err != nil {
			return err
		}
		pln, err := net.Listen("tcp", *peerAddr)
		if err != nil {
			return err
		}
		node.Serve(pln)
		fmt.Printf("cluster node %s: ring %v, replicas %d, hotk %d, peer listener %s\n",
			*nodeID, node.Ring().Nodes(), *replicas, *hotK, pln.Addr())
	} else if *peersFlag != "" || *peerAddr != "" {
		return fmt.Errorf("-peers/-peer-addr require -node-id")
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("proxyd serving %d files on %s\n", count, bound)

	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return err
		}
		adminSrv := &http.Server{Handler: srv.AdminHandler()}
		go func() { _ = adminSrv.Serve(ln) }()
		defer adminSrv.Close()
		fmt.Printf("admin listening on %s\n", ln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for sig := range sigc {
		if sig == syscall.SIGUSR1 {
			fmt.Println(srv.Stats())
			continue
		}
		break
	}
	fmt.Println("shutting down")
	if node != nil {
		if err := node.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "proxyd: cluster node:", err)
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "proxyd: event sink:", err)
	}
	if eventsFile != nil {
		if err := eventsFile.Close(); err != nil {
			return err
		}
	}
	fmt.Println(srv.Stats())
	return nil
}

// parsePeers parses the -peers "id=host:port,id=host:port" list.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer ID %q", id)
		}
		peers[id] = addr
	}
	return peers, nil
}
