// Package repro is a complete reproduction of "Impact of Data Compression
// on Energy Consumption of Wireless-Networked Handheld Devices" (Xu, Li,
// Wang, Ni — Purdue CSD-TR-03-003 / ICDCS 2003).
//
// It bundles, behind one public API:
//
//   - from-scratch implementations of the paper's three universal lossless
//     compression schemes — gzip (LZ77/DEFLATE), compress (LZW) and bzip2
//     (Burrows-Wheeler) — plus the zlib container (NewCodec);
//   - the paper's analytical energy model for compressed downloading,
//     Equations 1-6, with the published parameters (EnergyModel,
//     Params11Mbps, Params2Mbps);
//   - a simulated iPAQ 3650 + WaveLAN 802.11b testbed — power-state
//     machine, packet-level link, trace-sampling meter — calibrated with
//     the paper's Table 1 currents and fitted coefficients (RunExperiment);
//   - the block-by-block selective compression scheme of Section 4.3
//     (SelectiveEncode/SelectiveDecode);
//   - a real TCP proxy server and interleaving handheld client
//     (NewProxyServer, NewProxyClient).
//
// The harness that regenerates every table and figure of the paper's
// evaluation is cmd/energysim.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro

import (
	"io"
	"log/slog"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/pipeline"
	"repro/internal/proxy"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/workload"
)

// Scheme identifies a compression scheme.
type Scheme = codec.Scheme

// The paper's compression schemes.
const (
	Gzip     = codec.Gzip
	Compress = codec.Compress
	Bzip2    = codec.Bzip2
	Zlib     = codec.Zlib
)

// NewCodec returns a codec for the scheme at the given level; level 0
// selects the paper's setting (gzip -9, compress -b 16, bzip2 -9).
func NewCodec(s Scheme, level int) (codec.Codec, error) { return codec.New(s, level) }

// Schemes lists the three schemes of the paper's comparison.
func Schemes() []Scheme { return codec.Schemes() }

// ParseScheme is the inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) { return codec.ParseScheme(name) }

// CompressionFactor is input size over output size.
func CompressionFactor(rawSize, compSize int) float64 { return codec.Factor(rawSize, compSize) }

// EnergyModel is the paper's analytical model (Equations 1-6); sizes are
// in MB, energies in joules.
type EnergyModel = energy.Params

// Params11Mbps returns the model at the paper's primary 11 Mb/s setting.
func Params11Mbps() EnergyModel { return energy.Params11Mbps() }

// Params2Mbps returns the model at the 2 Mb/s validation setting.
func Params2Mbps() EnergyModel { return energy.Params2Mbps() }

// ShouldCompress is the paper's Equation 6 decision test on byte sizes.
func ShouldCompress(rawBytes, compBytes int) bool {
	return energy.PaperShouldCompress(rawBytes, compBytes)
}

// FileThresholdBytes is the size below which files are never compressed.
const FileThresholdBytes = energy.PaperFileThresholdBytes

// ExperimentSpec describes one simulated download experiment.
type ExperimentSpec = pipeline.Spec

// Execution modes for RunExperiment.
const (
	ModePlain       = pipeline.ModePlain
	ModeInterleaved = pipeline.ModeInterleaved
)

// RunExperiment compresses real bytes with the real codecs and replays the
// transfer on the simulated device/link/meter stack. A flag the spec's mode
// cannot honour (OnDemand outside ModeInterleaved, say) is an error.
func RunExperiment(spec ExperimentSpec) (pipeline.Result, error) { return pipeline.Run(spec) }

// RateConfig is an 802.11b rate point: effective rate, CPU-idle fraction,
// the radio's state through the gaps and the event device token.
type RateConfig = energy.RateConfig

// Rate constructors for the measured and interpolated 802.11b settings,
// and the lookup by nominal bit rate.
var (
	Rate11Mbps  = energy.Rate11Mbps
	Rate5_5Mbps = energy.Rate5_5Mbps
	Rate2Mbps   = energy.Rate2Mbps
	Rate1Mbps   = energy.Rate1Mbps
	RateForMbps = energy.RateForMbps
)

// DynamicDeciderConfig assembles a dynamic decider: base (possibly
// calibrated) model parameters, live link and queue hooks, default
// deadline class and advisory energy budget. The zero value is valid —
// static Table 1 constants, link pinned at 11 Mb/s, empty queue.
type DynamicDeciderConfig = decider.Config

// NewDynamicDecider builds the queue-aware, link-adaptive selective-mode
// policy: it re-evaluates the energy model per block against the live link
// rate, power-save flag and server compression-queue depth, honoring a
// deadline class, and is property-proven never worse in modeled joules than
// the paper's static Equation 6 under the same model. It drops into
// NewProxyServerWith and every selective encode path.
func NewDynamicDecider(cfg DynamicDeciderConfig) *decider.DynamicDecider { return decider.New(cfg) }

// LoadCalibrationFile reads a wide-event JSONL stream (the telemetry
// export format), calibrates it, and returns the fit for the requested
// device class ("" selects the first fitted device) — the loader behind
// `proxyd -calib FILE`.
func LoadCalibrationFile(path, device string) (calib.Fit, error) {
	return decider.LoadCalibration(path, device)
}

// ParamsFromCalibration overlays a fleet calibration on its reference
// parameter set. The bool reports whether any fitted coefficient was
// applied; false means the caller should fall back to the static set.
func ParamsFromCalibration(f calib.Fit) (EnergyModel, bool) {
	return decider.ParamsFromFit(f)
}

// SelectiveEncode applies the Figure 10 block-by-block adaptive scheme and
// returns the container bytes plus summary statistics.
func SelectiveEncode(data []byte, c codec.Codec, d selective.Decider) ([]byte, selective.Stats, error) {
	if d == nil {
		d = selective.PaperDecider{}
	}
	enc, err := selective.Encode(data, c, d)
	if err != nil {
		return nil, selective.Stats{}, err
	}
	return enc.Bytes(), enc.Stats(), nil
}

// SelectiveDecode decodes a selective container. maxSize, if positive,
// bounds the output.
func SelectiveDecode(stream []byte, maxSize int) ([]byte, error) {
	return selective.Decode(stream, maxSize)
}

// ProxyClientMode selects how the proxy serves a fetch.
type ProxyClientMode = proxy.Mode

// ProxyConfig tunes the proxy server's dataplane: artifact-cache byte
// budget, compression worker bound, connection cap, and per-request
// deadlines. The zero value selects defaults.
type ProxyConfig = proxy.Config

// Proxy transfer modes.
const (
	ProxyRaw           = proxy.ModeRaw
	ProxyPrecompressed = proxy.ModePrecompressed
	ProxyOnDemand      = proxy.ModeOnDemand
	ProxySelective     = proxy.ModeSelective
)

// NewProxyServer returns the stationary proxy of the paper's testbed; d nil
// selects Equation 6.
func NewProxyServer(d selective.Decider) *proxy.Server { return proxy.NewServer(d) }

// NewProxyServerWith returns a proxy server with an explicit dataplane
// configuration.
func NewProxyServerWith(d selective.Decider, cfg ProxyConfig) *proxy.Server {
	return proxy.NewServerWith(d, cfg)
}

// NewProxyClient returns a handheld-side download client, with interleaved
// decompression, for the proxy at addr.
func NewProxyClient(addr string) *proxy.Client { return proxy.NewClient(addr) }

// ClusterNode joins a proxy server to a consistent-hash ring of peers: it
// serves the PXY-P peer protocol and hooks the server's miss path so cache
// misses for artifact keys owned elsewhere fetch the finished compressed
// artifact from the owner instead of recompressing. Hot keys (top-K by a
// frequency sketch) are admitted into the local cache and replicated to
// ring successors; Register broadcasts generation bumps ring-wide.
type ClusterNode = cluster.Node

// ClusterConfig wires one proxy server into a cluster: node identity, ring
// membership, replication factor, hot-key admission budget and the peer
// dial function.
type ClusterConfig = cluster.Config

// NewClusterNode builds a cluster node and installs its peer-fetch hook on
// the configured proxy server. Call Serve with the peer listener to accept
// PXY-P traffic, and Close before the proxy shuts down.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// Tracer retains the most recent finished request spans in a bounded ring
// buffer; install one on a ProxyServer (ProxyConfig.Tracer) or a
// ProxyClient (Client.Tracer) to capture per-request phase timelines with
// modeled per-phase joules.
type Tracer = obs.Tracer

// NewTracer returns a tracer retaining up to capacity finished spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewEventSink starts a sink that delivers wide events to w (nil keeps only
// the ring) as JSONL without ever blocking the dataplane (full buffers drop
// and count) and retains a bounded ring of recent events for /eventsz;
// buffer and ring sizes <= 0 select defaults. Install one on a proxy client
// (Client.Events) or server (ProxyConfig.Events), and Close it to flush.
func NewEventSink(w io.Writer, buffer, ring int) *export.Sink {
	return export.NewSink(w, buffer, ring)
}

// NewStructuredLogger returns a structured text logger at the given level
// ("debug", "info", "warn" or "error") for ProxyConfig.Logger or
// ProxyClient.Logger.
func NewStructuredLogger(w io.Writer, level string) (*slog.Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, lv), nil
}

// FaultPlan is a seeded, deterministic fault-injection schedule for the
// proxy wire path: injected delays, fragmented writes, mid-stream resets,
// truncation and payload bit-flips. Install one on a server via
// ProxyConfig.WrapConn (plan.Wrapper()) to model the paper's lossy
// 802.11b link instead of a loopback that never fails.
type FaultPlan = faultconn.Plan

// Corpus returns the paper's Table 2 corpus specification.
func Corpus() []workload.FileSpec { return workload.Table2() }

// ScaledCorpus returns the corpus with large files scaled by factor.
func ScaledCorpus(factor float64) []workload.FileSpec { return workload.ScaledCorpus(factor) }

// GenerateMixedFile produces tar-like content alternating compressible and
// incompressible blocks (Section 4.3's motivating case).
func GenerateMixedFile(size int, seed uint64) []byte { return workload.MixedFile(size, seed) }
