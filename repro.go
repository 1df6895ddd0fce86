// Package repro is a complete reproduction of "Impact of Data Compression
// on Energy Consumption of Wireless-Networked Handheld Devices" (Xu, Li,
// Wang, Ni — Purdue CSD-TR-03-003 / ICDCS 2003).
//
// It bundles, behind one public API:
//
//   - from-scratch implementations of the paper's three universal lossless
//     compression schemes — gzip (LZ77/DEFLATE), compress (LZW) and bzip2
//     (Burrows-Wheeler) — plus the zlib container (Codec, NewCodec);
//   - the paper's analytical energy model for compressed downloading,
//     Equations 1-6, with the published parameters (EnergyModel,
//     Params11Mbps, Params2Mbps);
//   - a simulated iPAQ 3650 + WaveLAN 802.11b testbed — power-state
//     machine, packet-level link, trace-sampling meter — calibrated with
//     the paper's Table 1 currents and fitted coefficients (RunExperiment);
//   - the block-by-block selective compression scheme of Section 4.3
//     (SelectiveEncode/SelectiveDecode);
//   - a real TCP proxy server and interleaving handheld client
//     (NewProxyServer, NewProxyClient);
//   - the experiment harness that regenerates every table and figure of
//     the paper's evaluation (ExperimentConfig and the Render* helpers).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package repro

import (
	"io"
	"log/slog"
	"time"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/flate"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/pipeline"
	"repro/internal/proxy"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/session"
	"repro/internal/wlan"
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

// Codec compresses and decompresses byte buffers.
type Codec = codec.Codec

// NewCodec returns a codec for the scheme at the given level; level 0
// selects the paper's setting (gzip -9, compress -b 16, bzip2 -9).
func NewCodec(s Scheme, level int) (Codec, error) { return codec.New(s, level) }

// Schemes lists the three schemes of the paper's comparison.
func Schemes() []Scheme { return codec.Schemes() }

// NewGzipWriter returns a streaming gzip compressor (io.WriteCloser) at
// the given level; large inputs compress in constant memory.
func NewGzipWriter(w io.Writer, level int) (io.WriteCloser, error) {
	return flate.NewWriter(w, level)
}

// NewGzipReader returns a streaming gzip decompressor (io.Reader) that
// verifies the CRC-32 trailer at EOF.
func NewGzipReader(r io.Reader) io.Reader { return flate.NewReader(r) }

// CompressionFactor is input size over output size.
func CompressionFactor(rawSize, compSize int) float64 { return codec.Factor(rawSize, compSize) }

// EnergyModel is the paper's analytical model (Equations 1-6); sizes are
// in MB, energies in joules.
type EnergyModel = energy.Params

// Params11Mbps returns the model at the paper's primary 11 Mb/s setting.
func Params11Mbps() EnergyModel { return energy.Params11Mbps() }

// Params2Mbps returns the model at the 2 Mb/s validation setting.
func Params2Mbps() EnergyModel { return energy.Params2Mbps() }

// ParamsForMbps returns the model a nominal 802.11b bit rate is estimated
// with (only 11 and 2 Mb/s were measured; other rates use the 11 Mb/s set).
func ParamsForMbps(nominalMbps float64) EnergyModel { return energy.ParamsForMbps(nominalMbps) }

// EnergyBreakdown attributes one transfer's modeled energy to the
// hardware spending it: radio (receive + start-up), CPU (decompression)
// and the unreclaimed CPU-idle residual. The parts sum exactly to the
// corresponding whole-transfer equation.
type EnergyBreakdown = energy.Breakdown

// ShouldCompress is the paper's Equation 6 decision test on byte sizes.
func ShouldCompress(rawBytes, compBytes int) bool {
	return energy.PaperShouldCompress(rawBytes, compBytes)
}

// FileThresholdBytes is the size below which files are never compressed.
const FileThresholdBytes = energy.PaperFileThresholdBytes

// ExperimentSpec describes one simulated download experiment.
type ExperimentSpec = pipeline.Spec

// ExperimentResult is the outcome of a simulated experiment.
type ExperimentResult = pipeline.Result

// Execution modes for RunExperiment.
const (
	ModePlain       = pipeline.ModePlain
	ModeSequential  = pipeline.ModeSequential
	ModeInterleaved = pipeline.ModeInterleaved
)

// RunExperiment compresses real bytes with the real codecs and replays the
// transfer on the simulated device/link/meter stack.
func RunExperiment(spec ExperimentSpec) (ExperimentResult, error) { return pipeline.Run(spec) }

// RateConfig describes an 802.11b rate point.
type RateConfig = wlan.RateConfig

// Rate constructors for the measured and interpolated 802.11b settings.
var (
	Rate11Mbps  = wlan.Rate11Mbps
	Rate5_5Mbps = wlan.Rate5_5Mbps
	Rate2Mbps   = wlan.Rate2Mbps
	Rate1Mbps   = wlan.Rate1Mbps
)

// SelectiveDecider is the per-block compression decision test.
type SelectiveDecider = selective.Decider

// Deciders for the selective scheme.
type (
	// PaperDecider applies the paper's literal Equation 6.
	PaperDecider = selective.PaperDecider
	// ModelDecider derives decisions from an EnergyModel.
	ModelDecider = selective.ModelDecider
)

// SelectiveBlockSize is the 0.128 MB compression buffer.
const SelectiveBlockSize = selective.BlockSize

// DynamicDecider is the queue-aware, link-adaptive selective-mode policy:
// it re-evaluates the energy model per block against the live link rate,
// power-save flag and server compression-queue depth, honoring a deadline
// class, and is property-proven never worse in modeled joules than the
// paper's static Equation 6 under the same model. It implements
// SelectiveDecider, so it drops into ProxyConfig.Decider and every
// selective encode path.
type DynamicDecider = decider.DynamicDecider

// DynamicDeciderConfig assembles a DynamicDecider: base (possibly
// calibrated) model parameters, live link and queue hooks, default
// deadline class and advisory energy budget. The zero value is valid —
// static Table 1 constants, link pinned at 11 Mb/s, empty queue.
type DynamicDeciderConfig = decider.Config

// DeadlineClass is a client's declared latency slack for compression
// wins, as a multiple of the raw transfer time.
type DeadlineClass = decider.Class

// The deadline classes, loosest to tightest.
const (
	DeadlineNone     = decider.ClassNone
	DeadlineRelaxed  = decider.ClassRelaxed
	DeadlineStandard = decider.ClassStandard
	DeadlineStrict   = decider.ClassStrict
)

// ParseDeadlineClass maps a class name ("none", "relaxed", "standard",
// "strict") to its DeadlineClass; the scenario grammar and the proxyd /
// energysim flags share this vocabulary.
func ParseDeadlineClass(s string) (DeadlineClass, bool) { return decider.ParseClass(s) }

// NewDynamicDecider builds the dynamic decider.
func NewDynamicDecider(cfg DynamicDeciderConfig) *DynamicDecider { return decider.New(cfg) }

// LoadCalibrationFile reads a wide-event JSONL stream (the telemetry
// export format), calibrates it, and returns the fit for the requested
// device class ("" selects the first fitted device) — the loader behind
// `proxyd -calib FILE`.
func LoadCalibrationFile(path, device string) (CalibrationFit, error) {
	return decider.LoadCalibration(path, device)
}

// ParamsFromCalibration overlays a fleet calibration on its reference
// parameter set. The bool reports whether any fitted coefficient was
// applied; false means the caller should fall back to the static set.
func ParamsFromCalibration(f CalibrationFit) (EnergyModel, bool) {
	return decider.ParamsFromFit(f)
}

// SelectiveEncode applies the Figure 10 block-by-block adaptive scheme and
// returns the container bytes plus summary statistics.
func SelectiveEncode(data []byte, c Codec, d SelectiveDecider) ([]byte, selective.Stats, error) {
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

// ProxyServer is the stationary proxy of the paper's testbed.
type ProxyServer = proxy.Server

// ProxyClient is the handheld-side download client with interleaved
// decompression.
type ProxyClient = proxy.Client

// ProxyClientMode selects how the proxy serves a fetch.
type ProxyClientMode = proxy.Mode

// ProxyConfig tunes the proxy server's dataplane: artifact-cache byte
// budget, compression worker bound, connection cap, and per-connection
// deadlines. The zero value selects defaults.
type ProxyConfig = proxy.Config

// ProxyStats is a snapshot of the proxy server's counters (cache
// hits/misses, singleflight coalescing, bytes served raw vs compressed,
// connection counts and the latency histogram).
type ProxyStats = proxy.Stats

// Proxy transfer modes.
const (
	ProxyRaw           = proxy.ModeRaw
	ProxyPrecompressed = proxy.ModePrecompressed
	ProxyOnDemand      = proxy.ModeOnDemand
	ProxySelective     = proxy.ModeSelective
)

// NewProxyServer returns a proxy server; decider nil selects Equation 6.
func NewProxyServer(decider SelectiveDecider) *ProxyServer { return proxy.NewServer(decider) }

// NewProxyServerWith returns a proxy server with an explicit dataplane
// configuration.
func NewProxyServerWith(decider SelectiveDecider, cfg ProxyConfig) *ProxyServer {
	return proxy.NewServerWith(decider, cfg)
}

// NewProxyClient returns a client for the proxy at addr.
func NewProxyClient(addr string) *ProxyClient { return proxy.NewClient(addr) }

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

// ClusterRing is the consistent-hash ring (hashed vnodes) mapping artifact
// keys to owner nodes.
type ClusterRing = cluster.Ring

// NewClusterNode builds a cluster node and installs its peer-fetch hook on
// the configured proxy server. Call Serve with the peer listener to accept
// PXY-P traffic, and Close before the proxy shuts down.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// NewClusterRing builds a ring over the node IDs; vnodes 0 selects the
// default (64 per node).
func NewClusterRing(nodes []string, vnodes int) *ClusterRing { return cluster.NewRing(nodes, vnodes) }

// MetricsRegistry holds named counters, gauges and histograms; the proxy
// server and client register their instruments on one, and its snapshot
// renders as Prometheus text (the admin plane's /metrics) or JSON.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Tracer retains the most recent finished request spans in a bounded ring
// buffer; install one on a ProxyServer (ProxyConfig.Tracer) or a
// ProxyClient (Client.Tracer) to capture per-request phase timelines with
// modeled per-phase joules.
type Tracer = obs.Tracer

// TraceSpan is one finished span: the phase timeline of a request with
// its energy attribution, as served by /tracez and printed by
// hhfetch -trace.
type TraceSpan = obs.SpanData

// NewTracer returns a tracer retaining up to capacity finished spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// TelemetryEvent is one wide event of the telemetry pipeline: the
// flattened record of a finished fetch or serve span (request ID, scheme,
// device class, bytes, attempts, per-phase durations, per-class joules).
// Its JSON field set is a stable contract (README "Telemetry and
// calibration").
type TelemetryEvent = export.Event

// Device classes tagging telemetry events, the calibrator's grouping key.
const (
	DeviceIPAQ11 = export.DeviceIPAQ11
	DeviceIPAQ2  = export.DeviceIPAQ2
)

// EventSink delivers wide events to an io.Writer as JSONL without ever
// blocking the dataplane (full buffers drop and count) and retains a
// bounded ring of recent events for /eventsz. Install one on a
// ProxyClient (Client.Events) or ProxyServer (ProxyConfig.Events).
type EventSink = export.Sink

// NewEventSink starts a sink draining to w (nil keeps only the ring);
// buffer and ring sizes <= 0 select defaults. Close it to flush.
func NewEventSink(w io.Writer, buffer, ring int) *EventSink {
	return export.NewSink(w, buffer, ring)
}

// CalibrationFit is one device class's energy-model coefficients re-fitted
// from a wide-event stream, scored against the paper's Table 1 parameters.
type CalibrationFit = calib.Fit

// CalibrateEvents re-derives td(s, sc) and E(s) per device class from an
// event stream, the way the paper fit Figure 8a/8b from measured traces.
func CalibrateEvents(events []TelemetryEvent) ([]CalibrationFit, error) {
	return calib.Calibrate(events)
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

// FileSpec describes one corpus file from the paper's Table 2.
type FileSpec = workload.FileSpec

// Corpus returns the paper's Table 2 corpus specification.
func Corpus() []FileSpec { return workload.Table2() }

// ScaledCorpus returns the corpus with large files scaled by factor.
func ScaledCorpus(factor float64) []FileSpec { return workload.ScaledCorpus(factor) }

// GenerateMixedFile produces tar-like content alternating compressible and
// incompressible blocks (Section 4.3's motivating case).
func GenerateMixedFile(size int, seed uint64) []byte { return workload.MixedFile(size, seed) }

// ExperimentConfig controls the table/figure regeneration harness.
type ExperimentConfig = experiment.Config

// SessionSpec describes a multi-request browse session for the radio
// idle-management policy study (the paper's Section 2 discussion).
type SessionSpec = session.Spec

// SessionRequest is one request of a session.
type SessionRequest = session.Request

// Radio idle-management policies.
const (
	PolicyAlwaysOn        = session.AlwaysOn
	PolicyHardwarePS      = session.HardwarePS
	PolicyPredictiveSleep = session.PredictiveSleep
)

// RunSession executes a session under a policy.
func RunSession(spec SessionSpec) (session.Result, error) { return session.Run(spec) }

// WebSession builds a deterministic browse-like request mix.
func WebSession(n int, meanGap time.Duration, meanBytes int, seed int64) []SessionRequest {
	return session.WebSession(n, meanGap, meanBytes, seed)
}

// Battery models the handheld's energy store for lifetime estimates.
type Battery = device.Battery

// IPAQBattery returns the iPAQ 3650's 1500 mAh pack.
func IPAQBattery() Battery { return device.IPAQBattery() }
