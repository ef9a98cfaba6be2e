// Package hpcfail is a Go reproduction of Schroeder & Gibson, "A
// large-scale study of failures in high-performance computing systems"
// (DSN 2006): the failure-record data model of the LANL trace, a
// calibrated synthetic trace generator, a from-scratch statistics and
// distribution-fitting stack, the paper's analyses (root causes, failure
// rates, time between failures, time to repair), and a discrete-event
// cluster simulator for the checkpointing and scheduling applications the
// paper motivates.
//
// This package is the public facade: it re-exports the library's curated
// API from the internal packages so external modules can use it. The
// subsystems live in internal/ (see DESIGN.md for the inventory); the
// aliases below are the supported surface.
//
// Quick start:
//
//	data, err := hpcfail.NewGenerator(hpcfail.GeneratorConfig{Seed: 1}).Generate()
//	...
//	cmp, err := hpcfail.FitAll(data.BySystem(20).PositiveInterarrivals())
//	best, err := cmp.Best() // weibull, shape ~0.7-0.8
package hpcfail

import (
	"hpcfail/internal/analysis"
	"hpcfail/internal/censor"
	"hpcfail/internal/checkpoint"
	"hpcfail/internal/correlate"
	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/hazard"
	"hpcfail/internal/lanl"
	"hpcfail/internal/maintenance"
	"hpcfail/internal/randx"
	"hpcfail/internal/resilience"
	"hpcfail/internal/sim"
	"hpcfail/internal/stats"
	"hpcfail/internal/streamstats"
	"hpcfail/internal/sweep"
	"hpcfail/internal/tracefmt"
	"hpcfail/internal/trend"
)

// ---- Failure records and datasets (internal/failures) ----

// Core data-model types.
type (
	// Record is one failure: when it started, when it was repaired, where
	// it happened and why.
	Record = failures.Record
	// Dataset is an immutable, time-ordered collection of failure records.
	Dataset = failures.Dataset
	// RootCause is the high-level root-cause category.
	RootCause = failures.RootCause
	// Workload is the workload type a failed node was running.
	Workload = failures.Workload
	// HWType is the anonymized hardware type label (A–H).
	HWType = failures.HWType
)

// Root-cause categories.
const (
	CauseUnknown     = failures.CauseUnknown
	CauseHuman       = failures.CauseHuman
	CauseEnvironment = failures.CauseEnvironment
	CauseNetwork     = failures.CauseNetwork
	CauseSoftware    = failures.CauseSoftware
	CauseHardware    = failures.CauseHardware
)

// Workload types.
const (
	WorkloadCompute  = failures.WorkloadCompute
	WorkloadGraphics = failures.WorkloadGraphics
	WorkloadFrontend = failures.WorkloadFrontend
)

// Dataset construction and serialization.
var (
	// NewDataset validates, copies and time-orders records.
	NewDataset = failures.NewDataset
	// NewDatasetSorted is the copy-saving variant for records already in
	// start order (the parallel generator's merge output); it verifies the
	// order and falls back to sorting when the claim does not hold.
	NewDatasetSorted = failures.NewDatasetSorted
	// MergeDatasets combines datasets into one time-ordered dataset.
	MergeDatasets = failures.Merge
	// SortByStart stable-sorts records in place by start time;
	// MergeSortedBlocks merges per-block sorted runs into one sorted
	// slice, stable across block order.
	SortByStart       = failures.SortByStart
	MergeSortedBlocks = failures.MergeSortedBlocks
	// WriteCSV and ReadCSV are the trace codec; ReadCSVWith adds a
	// lenient mode that skips malformed rows and reports them as
	// RowErrors instead of aborting the load.
	WriteCSV    = failures.WriteCSV
	ReadCSV     = failures.ReadCSV
	ReadCSVWith = failures.ReadCSVWith
	// Causes lists the root-cause categories in figure order.
	Causes = failures.Causes
)

// CSV ingest options and per-row errors for the lenient mode.
type (
	ReadCSVOptions = failures.ReadCSVOptions
	RowError       = failures.RowError
	// Scanner yields records one at a time from CSV without building a
	// Dataset — the bounded-memory ingest path for traces larger than RAM.
	Scanner = failures.Scanner
	// CSVWriter emits records one at a time in WriteCSV's exact format —
	// the output half of the streaming codec.
	CSVWriter = failures.CSVWriter
)

// NewScanner opens a streaming CSV reader sharing ReadCSV's parsing,
// validation and lenient-mode semantics; NewCSVWriter opens the
// matching streaming writer (header written immediately).
var (
	NewScanner   = failures.NewScanner
	NewCSVWriter = failures.NewCSVWriter
)

// ---- Columnar binary trace format (internal/tracefmt) ----

// Binary trace codec types.
type (
	// TraceWriter encodes records into the columnar binary trace format:
	// CRC-framed blocks of fixed-width column segments with
	// dictionary-encoded labels and per-block time indexes. ~2.5x smaller
	// than CSV and over an order of magnitude faster to scan.
	TraceWriter        = tracefmt.Writer
	TraceWriterOptions = tracefmt.WriterOptions
	// TraceScanner yields records from a binary trace one at a time with
	// no per-record allocation; it implements RecordSource, so it plugs
	// straight into Engine.AnalyzeStream.
	TraceScanner     = tracefmt.Scanner
	TraceScanOptions = tracefmt.ScanOptions
	// TraceFile is the random-access view of a binary trace: footer
	// index, label dictionaries, and time-range scans that skip
	// non-overlapping blocks without reading them.
	TraceFile = tracefmt.File
	// TraceBlockInfo describes one block of a TraceFile's footer index.
	TraceBlockInfo = tracefmt.BlockInfo
	// TraceParallelScanner decodes blocks on a worker pool while yielding
	// records in exact sequential order — the same Scan/Record/Err and
	// ScanBatch shape as TraceScanner, so it too plugs straight into
	// Engine.AnalyzeStream. Obtain one from TraceFile.ScanParallel
	// (indexed, block-skipping) or NewTraceScannerParallel (streaming
	// read-ahead for pipes).
	TraceParallelScanner = tracefmt.ParallelScanner
)

// Binary trace codec entry points.
var (
	// NewTraceWriter opens a streaming binary trace writer; NewTraceScanner
	// opens the sequential reader. OpenTraceFile opens a trace on disk for
	// indexed time-range scans.
	NewTraceWriter  = tracefmt.NewWriter
	NewTraceScanner = tracefmt.NewScanner
	OpenTraceFile   = tracefmt.OpenFile
	// NewTraceScannerParallel is the parallel decoder for readers without
	// random access: a producer goroutine read-ahead-decodes blocks while
	// the consumer drains the current one. For seekable files, prefer
	// TraceFile.ScanParallel, which decodes on a full worker pool.
	NewTraceScannerParallel = tracefmt.NewScannerParallel
	// ReadTrace decodes an entire binary trace into a Dataset — the
	// binary counterpart of ReadCSV.
	ReadTrace = tracefmt.ReadDataset
	// SniffTraceMagic reports whether a file's first TraceHeaderLen bytes
	// mark it as a binary trace, for format auto-detection.
	SniffTraceMagic = tracefmt.SniffMagic
)

// TraceHeaderLen is how many leading bytes SniffTraceMagic needs.
const TraceHeaderLen = tracefmt.HeaderLen

// ---- LANL environment and synthetic trace generation (internal/lanl) ----

// Catalog and generator types.
type (
	// System is one row of the paper's Table 1.
	System = lanl.System
	// NodeCategory is one homogeneous node group within a system.
	NodeCategory = lanl.NodeCategory
	// GeneratorConfig controls synthetic trace generation; its Workers
	// field bounds the generator's worker pool (0 means GOMAXPROCS).
	GeneratorConfig = lanl.Config
	// Generator produces synthetic LANL-like traces. Generate materializes
	// a Dataset; GenerateStream pushes records to a callback without
	// materializing the trace; Stream returns a pull-style RecordStream.
	Generator = lanl.Generator
	// RecordStream is the pull-style record iterator returned by
	// Generator.Stream — Scan/Record/Err/Close, like Scanner.
	RecordStream = lanl.RecordStream
	// Era is one hardware generation of the extrapolated catalog.
	Era = lanl.Era
)

// Catalog access and generation.
var (
	// Catalog returns the paper's 22-system Table 1.
	Catalog = lanl.Catalog
	// SystemByID looks up one system.
	SystemByID = lanl.SystemByID
	// NewGenerator builds a trace generator.
	NewGenerator = lanl.NewGenerator
	// ExtrapolatedCatalog returns the projected 10k/50k/100k-node
	// petascale-to-exascale systems (IDs 101-303); Eras and ScaleClasses
	// are its axes and ExtrapolatedID maps (era, class) to a system ID.
	// ValidateCatalog checks any replacement catalog for GeneratorConfig.
	ExtrapolatedCatalog = lanl.ExtrapolatedCatalog
	Eras                = lanl.Eras
	ScaleClasses        = lanl.ScaleClasses
	ExtrapolatedID      = lanl.ExtrapolatedID
	ValidateCatalog     = lanl.ValidateCatalog
)

// Collection period boundaries of the LANL data.
var (
	CollectionStart = lanl.CollectionStart
	CollectionEnd   = lanl.CollectionEnd
)

// ---- Distributions and fitting (internal/dist) ----

// Distribution types.
type (
	// Continuous is a continuous probability distribution.
	Continuous = dist.Continuous
	// Discrete is a distribution over non-negative integers.
	Discrete = dist.Discrete
	// Exponential, Weibull, Gamma, LogNormal, Normal, Pareto and Poisson
	// are the reliability distributions of the paper's Section 3.
	Exponential = dist.Exponential
	Weibull     = dist.Weibull
	Gamma       = dist.Gamma
	LogNormal   = dist.LogNormal
	Normal      = dist.Normal
	Pareto      = dist.Pareto
	Poisson     = dist.Poisson
	// HyperExp is the two-phase phase-type distribution of the paper's
	// Section 3 remark.
	HyperExp = dist.HyperExp
	// KSTestResult is a parametric-bootstrap KS test outcome.
	KSTestResult = dist.KSTestResult
	// ParamCI is a bootstrap confidence interval for a fitted parameter.
	ParamCI = dist.ParamCI
	// Parameterized is implemented by distributions that expose their
	// fitted parameters by name, which is what FitCI bootstraps over.
	Parameterized = dist.Parameterized
	// Family selects a distribution family for fitting.
	Family = dist.Family
	// FitResult is one fitted candidate; Comparison ranks them by NLL.
	FitResult = dist.FitResult
	// Comparison holds ranked fits of several families.
	Comparison = dist.Comparison
	// Sample is a precomputed view of one observation vector (log cache,
	// sums, sorted order, ECDF, identity hash) that the fit kernels and
	// bootstrap loops consume; build one with NewSample and pass it to the
	// *Sample fitter variants to pay for the transforms exactly once.
	Sample = dist.Sample
)

// Fitting families.
const (
	FamilyExponential = dist.FamilyExponential
	FamilyWeibull     = dist.FamilyWeibull
	FamilyGamma       = dist.FamilyGamma
	FamilyLogNormal   = dist.FamilyLogNormal
	FamilyNormal      = dist.FamilyNormal
	FamilyPareto      = dist.FamilyPareto
	FamilyHyperExp    = dist.FamilyHyperExp
)

// Constructors and fitters.
var (
	NewExponential = dist.NewExponential
	NewWeibull     = dist.NewWeibull
	NewGamma       = dist.NewGamma
	NewLogNormal   = dist.NewLogNormal
	NewNormal      = dist.NewNormal
	NewPareto      = dist.NewPareto
	NewPoisson     = dist.NewPoisson

	FitExponential = dist.FitExponential
	FitWeibull     = dist.FitWeibull
	FitGamma       = dist.FitGamma
	FitLogNormal   = dist.FitLogNormal
	FitNormal      = dist.FitNormal
	FitPareto      = dist.FitPareto
	FitPoisson     = dist.FitPoisson
	NewHyperExp    = dist.NewHyperExp
	FitHyperExp    = dist.FitHyperExp
	// BootstrapKSTest gives a fit p-value that accounts for parameter
	// estimation (the naive KS p-value does not); FitCI attaches bootstrap
	// confidence intervals to every parameter of any fitted family, and
	// WeibullCI is its Weibull-typed convenience form for the headline
	// shape estimate.
	BootstrapKSTest = dist.BootstrapKSTest
	FitCI           = dist.FitCI
	WeibullCI       = dist.WeibullCI

	// NewResampler builds a nonparametric sampler from an empirical
	// sample, usable wherever the simulator takes a distribution.
	NewResampler = dist.NewResampler

	// FitAll fits families to a sample and ranks them by negative
	// log-likelihood; with no families it uses the paper's standard four.
	FitAll = dist.FitAll
	// StandardFamilies returns exponential, Weibull, gamma, lognormal.
	StandardFamilies = dist.StandardFamilies
	// NegLogLikelihood scores a fitted distribution on data.
	NegLogLikelihood = dist.NegLogLikelihood

	// NewSample precomputes a sample's fit transforms once; FitSample,
	// FitAllSample, FitCISample and BootstrapKSTestSample consume them, and
	// are bit-identical to their slice counterparts on the same data.
	NewSample              = dist.NewSample
	FitSample              = dist.FitSample
	FitAllSample           = dist.FitAllSample
	FitCISample            = dist.FitCISample
	BootstrapKSTestSample  = dist.BootstrapKSTestSample
	NegLogLikelihoodSample = dist.NegLogLikelihoodSample

	// NewCIPlan and NewKSPlan expose the counter-seeded bootstrap as
	// splittable work: a plan's rep blocks may run on any worker in any
	// order and merge bit-identically to the one-shot calls above.
	NewCIPlan = dist.NewCIPlan
	NewKSPlan = dist.NewKSPlan
)

// Splittable-bootstrap plan types.
type (
	// CIPlan partitions one bootstrap-CI computation into rep blocks;
	// CIBlock is one block's resampled estimates.
	CIPlan  = dist.CIPlan
	CIBlock = dist.CIBlock
	// KSPlan and KSBlock are the same split for the bootstrap KS test.
	KSPlan  = dist.KSPlan
	KSBlock = dist.KSBlock
)

// ---- Descriptive statistics (internal/stats) ----

// Statistic types.
type (
	// Summary holds mean, median, C² and friends for a sample.
	Summary = stats.Summary
	// ECDF is an empirical cumulative distribution function.
	ECDF = stats.ECDF
)

// Statistics helpers.
var (
	Summarize = stats.Summarize
	Quantile  = stats.Quantile
	NewECDF   = stats.NewECDF
	// ErrNaN is returned by order-statistic routines given a sample
	// containing NaN; ContainsNaN is the predicate behind it.
	ErrNaN      = stats.ErrNaN
	ContainsNaN = stats.ContainsNaN
	// KolmogorovPValue bounds the p-value of a KS statistic;
	// AndersonDarling is the tail-sensitive alternative.
	KolmogorovPValue = stats.KolmogorovPValue
	AndersonDarling  = stats.AndersonDarling
	// Autocorrelation checks the independence assumption behind renewal
	// models of time between failures.
	Autocorrelation = stats.Autocorrelation
)

// ---- Hazard estimation (internal/hazard) ----

// Hazard-estimation types.
type (
	// HazardEstimate is a binned empirical hazard-rate estimate.
	HazardEstimate = hazard.Estimate
	// HazardDirection classifies a hazard trend.
	HazardDirection = hazard.Direction
	// CumulativeHazardPoint is one step of a Nelson–Aalen estimate.
	CumulativeHazardPoint = hazard.CumulativePoint
)

// Hazard directions.
const (
	HazardDecreasingDir = hazard.Decreasing
	HazardIncreasingDir = hazard.Increasing
	HazardFlatDir       = hazard.Flat
)

// Hazard estimators.
var (
	NelsonAalen      = hazard.NelsonAalen
	EmpiricalHazard  = hazard.Empirical
	MeanResidualLife = hazard.MeanResidualLife
)

// ---- Censored survival analysis (internal/censor) ----

// Censored-data types.
type (
	// CensoredObservation is one (possibly right-censored) lifetime.
	CensoredObservation = censor.Observation
	// SurvivalPoint is one step of a Kaplan–Meier curve.
	SurvivalPoint = censor.SurvivalPoint
)

// Censored estimators.
var (
	KaplanMeier            = censor.KaplanMeier
	MedianSurvival         = censor.MedianSurvival
	FitExponentialCensored = censor.FitExponential
	FitWeibullCensored     = censor.FitWeibull
	NodeLifetimes          = censor.NodeLifetimes
)

// ---- Correlation analysis (internal/correlate) ----

// Correlation types.
type (
	// FailureBatch is a group of near-simultaneous failures.
	FailureBatch = correlate.Batch
	// BatchStats summarizes batch structure.
	BatchStats = correlate.BatchStats
	// NodePairCorrelation is the correlation of two nodes' daily counts.
	NodePairCorrelation = correlate.PairCorrelation
)

// Correlation analyses.
var (
	FindFailureBatches     = correlate.FindBatches
	SummarizeBatches       = correlate.Summarize
	DailyCountCorrelations = correlate.DailyCountCorrelations
	CompareBatchEras       = correlate.CompareEras
)

// ---- Trend tests (internal/trend) ----

// Trend types.
type (
	// LaplaceResult is the Laplace trend-test outcome.
	LaplaceResult = trend.LaplaceResult
	// PowerLawProcess is a fitted Crow–AMSAA model.
	PowerLawProcess = trend.PowerLaw
	// RateChangePoint is a detected failure-rate shift.
	RateChangePoint = trend.ChangePoint
	// TrendVerdict classifies a failure-rate trend.
	TrendVerdict = trend.Verdict
)

// Trend verdicts.
const (
	TrendImproving     = trend.Improving
	TrendDeteriorating = trend.Deteriorating
	TrendStable        = trend.Stable
)

// Trend analyses.
var (
	LaplaceTest = trend.Laplace
	FitPowerLaw = trend.FitPowerLaw
	// FindChangePoint locates the most likely failure-rate shift.
	FindChangePoint = trend.FindChangePoint
)

// ---- Paper analyses (internal/analysis) ----

// Analysis result types.
type (
	// CauseBreakdown is one bar of Figure 1.
	CauseBreakdown = analysis.CauseBreakdown
	// SystemRate is one bar of Figure 2.
	SystemRate = analysis.SystemRate
	// NodeCountStudy is the Figure 3 analysis.
	NodeCountStudy = analysis.NodeCountStudy
	// LifecyclePoint is one month of a Figure 4 curve.
	LifecyclePoint = analysis.LifecyclePoint
	// TimeOfDayProfile is Figure 5.
	TimeOfDayProfile = analysis.TimeOfDayProfile
	// InterarrivalStudy is one panel of Figure 6.
	InterarrivalStudy = analysis.InterarrivalStudy
	// Figure6Panels bundles the four Figure 6 panels.
	Figure6Panels = analysis.Figure6Panels
	// RepairStats is one column of Table 2.
	RepairStats = analysis.RepairStats
	// RepairFitStudy is Figure 7(a).
	RepairFitStudy = analysis.RepairFitStudy
	// SystemRepair is one bar of Figure 7(b)/(c).
	SystemRepair = analysis.SystemRepair
	// SystemAvailability is a steady-state availability estimate.
	SystemAvailability = analysis.SystemAvailability
	// DetailCount is one low-level root cause with its share.
	DetailCount = analysis.DetailCount
	// MonthlyPoint is one month of a reliability time series.
	MonthlyPoint = analysis.MonthlyPoint
)

// Analysis entry points, one per experiment.
var (
	RootCauseBreakdown  = analysis.RootCauseBreakdown
	DowntimeBreakdown   = analysis.DowntimeBreakdown
	FailureRates        = analysis.FailureRates
	PerNodeCounts       = analysis.PerNodeCounts
	LifecycleCurve      = analysis.LifecycleCurve
	ClassifyLifecycle   = analysis.ClassifyLifecycle
	NewTimeOfDayProfile = analysis.NewTimeOfDayProfile
	StudyInterarrivals  = analysis.StudyInterarrivals
	Figure6             = analysis.Figure6
	RepairTimeByCause   = analysis.RepairTimeByCause
	RepairTimeFits      = analysis.RepairTimeFits
	RepairTimePerSystem = analysis.RepairTimePerSystem
	// AvailabilityPerSystem and the detail-cause breakdowns extend the
	// paper's Section 4 and the operator view.
	AvailabilityPerSystem = analysis.AvailabilityPerSystem
	DetailBreakdown       = analysis.DetailBreakdown
	TopDetail             = analysis.TopDetail
	// MonthlySeries, MovingAverage and PeakMonth build calendar-month
	// reliability time series.
	MonthlySeries = analysis.MonthlySeries
	MovingAverage = analysis.MovingAverage
	PeakMonth     = analysis.PeakMonth
	// StudyInterarrivalsWith, Figure6With and RepairTimeFitsWith are the
	// Fitter-parameterized forms of the fitting analyses; pass a shared
	// *Engine to memoize fits and bound concurrency.
	StudyInterarrivalsWith = analysis.StudyInterarrivalsWith
	Figure6With            = analysis.Figure6With
	RepairTimeFitsWith     = analysis.RepairTimeFitsWith
)

// Fitter abstracts how analyses obtain distribution fits; *Engine satisfies
// it, as does SequentialFitter.
type Fitter = analysis.Fitter

// SequentialFitter returns the inline, no-concurrency Fitter.
var SequentialFitter = analysis.SequentialFitter

// ---- Concurrent analysis engine (internal/engine) ----

// Engine types.
type (
	// Engine is the concurrent, memoizing distribution-fitting pipeline:
	// bounded worker pool, deterministic merge order, seeded bootstrap
	// confidence intervals for every fitted parameter.
	Engine = engine.Engine
	// EngineOptions configures worker count, bootstrap replication count,
	// confidence level and base seed.
	EngineOptions = engine.Options
	// ShardKey identifies one (system, workload, root cause) shard of a
	// fleet analysis; ShardSpec controls sharding and fitted families.
	ShardKey  = engine.ShardKey
	ShardSpec = engine.ShardSpec
	// Study is the fitted view of one sample; ShardResult and FleetResult
	// assemble studies per shard and per fleet.
	Study       = engine.Study
	ShardResult = engine.ShardResult
	FleetResult = engine.FleetResult
)

// NewEngine builds an analysis engine; the zero Options give GOMAXPROCS
// workers, 200 bootstrap resamples at the 95% level and seed 0.
var NewEngine = engine.New

// ---- Streaming one-pass statistics (internal/streamstats, internal/engine) ----

// Streaming accumulator types.
type (
	// StreamMoments is a mergeable one-pass (Welford) moment accumulator:
	// mean, variance, C², extrema.
	StreamMoments = streamstats.Moments
	// QuantileSketch is a mergeable quantile sketch with a (1 ± ε)
	// relative-error guarantee.
	QuantileSketch = streamstats.QuantileSketch
	// Reservoir keeps a seeded uniform subsample of a stream of unknown
	// length (Vitter's Algorithm R).
	Reservoir = streamstats.Reservoir
	// StreamAccumulator bundles the three: the one-pass counterpart of
	// Summarize plus a fitting subsample; StreamConfig sizes it.
	StreamAccumulator = streamstats.Accumulator
	StreamConfig      = streamstats.Config
	// StreamOptions configures the engine's one-pass fleet analysis;
	// StreamInfo reports what the pass saw. RecordSource is the record
	// iterator it consumes — Scanner implements it.
	StreamOptions = engine.StreamOptions
	StreamInfo    = engine.StreamInfo
	RecordSource  = engine.RecordSource
)

// Streaming constructors.
var (
	NewStreamAccumulator = streamstats.NewAccumulator
	NewQuantileSketch    = streamstats.NewQuantileSketch
	NewReservoir         = streamstats.NewReservoir
)

// ---- Cluster simulation and checkpointing (internal/sim, internal/checkpoint) ----

// Simulation types.
type (
	// SimEngine is the discrete-event clock.
	SimEngine = sim.Engine
	// SimNode is a simulated node with failure and repair processes.
	SimNode = sim.Node
	// JobConfig describes a checkpointed job.
	JobConfig = sim.JobConfig
	// Job is a running checkpointed job.
	Job = sim.Job
	// Cluster runs jobs over simulated nodes.
	Cluster = sim.Cluster
	// ClusterConfig configures a Cluster.
	ClusterConfig = sim.ClusterConfig
	// NodeSpec describes one node of a cluster.
	NodeSpec = sim.NodeSpec
	// Scheduler places jobs on nodes; FirstFitScheduler,
	// ReliabilityScheduler and ScoredScheduler are the built-in policies.
	Scheduler            = sim.Scheduler
	FirstFitScheduler    = sim.FirstFitScheduler
	ReliabilityScheduler = sim.ReliabilityScheduler
	ScoredScheduler      = sim.ScoredScheduler
	// CheckpointSimConfig configures checkpoint-interval evaluation.
	CheckpointSimConfig = checkpoint.SimConfig
	// IntervalPolicy chooses checkpoint intervals; FixedPolicy and
	// HazardPolicy are the built-ins.
	IntervalPolicy = checkpoint.IntervalPolicy
	FixedPolicy    = checkpoint.FixedPolicy
	HazardPolicy   = checkpoint.HazardPolicy
	// TraceEvent scripts one failure for trace-driven simulation.
	TraceEvent = sim.TraceEvent
	// ResilienceConfig selects the cluster's failure-response policies:
	// a RetryPolicy for interrupted jobs, a FencingPolicy for node
	// admission, and a DetectionModel for failure-observation latency.
	ResilienceConfig   = sim.ResilienceConfig
	RetryPolicy        = resilience.RetryPolicy
	ImmediateRetry     = resilience.ImmediateRetry
	FixedBackoff       = resilience.FixedBackoff
	ExponentialBackoff = resilience.ExponentialBackoff
	FencingPolicy      = resilience.FencingPolicy
	NoFencing          = resilience.NoFencing
	WindowFencing      = resilience.WindowFencing
	DetectionModel     = resilience.DetectionModel
	InstantDetection   = resilience.InstantDetection
	FixedDetection     = resilience.FixedDetection
	UniformDetection   = resilience.UniformDetection
	// Scenario scripts adversarial fault injection (correlated bursts,
	// repair-time inflation, cascades) armed on a cluster via
	// Cluster.Inject; Injector reports what it forced.
	Scenario        = resilience.Scenario
	Burst           = resilience.Burst
	RepairInflation = resilience.RepairInflation
	Cascade         = resilience.Cascade
	Injector        = sim.Injector
	// MaintenancePolicy analyzes age-replacement under a fitted lifetime
	// model; MaintenanceOptimum is its optimization result.
	MaintenancePolicy  = maintenance.Policy
	MaintenanceOptimum = maintenance.Optimum
)

// Simulation and checkpoint helpers.
var (
	NewCluster = sim.NewCluster
	StartJob   = sim.StartJob
	// NewTraceNode, TraceFromRecords and ReplayCluster drive the simulator
	// from recorded failure histories instead of fitted models.
	NewTraceNode     = sim.NewTraceNode
	TraceFromRecords = sim.TraceFromRecords
	ReplayCluster    = sim.ReplayCluster
	// NewWindowFencing builds the K-strikes sliding-window fencing
	// policy with probationary re-admission.
	NewWindowFencing = resilience.NewWindowFencing
	// SimulatePolicyEfficiency evaluates adaptive checkpoint policies.
	SimulatePolicyEfficiency = checkpoint.SimulatePolicyEfficiency

	// YoungInterval and DalyInterval are the classic closed-form
	// checkpoint intervals (memoryless assumption).
	YoungInterval = checkpoint.YoungInterval
	DalyInterval  = checkpoint.DalyInterval
	// SimulateEfficiency and OptimizeInterval evaluate intervals under any
	// fitted failure distribution.
	SimulateEfficiency = checkpoint.SimulateEfficiency
	OptimizeInterval   = checkpoint.OptimizeInterval
)

// ---- Policy-search sweeps (internal/sweep) ----

// One-configuration simulation via textual spec tokens (the cmd/simulate
// flag syntax) and the sweep engine built on it.
type (
	// RunSpec is one complete (policy, scenario, seed) simulator
	// configuration; RunOne executes it, RunSpec.Validate checks it.
	RunSpec        = sim.RunSpec
	SimRunResult   = sim.RunResult
	SweepGrid      = sweep.Grid
	SweepOptions   = sweep.Options
	SweepResult    = sweep.Result
	SweepProfile   = sweep.SystemProfile
	SweepPoint     = sweep.Point
	RefineResult   = sweep.RefineResult
	SweepAggregate = sweep.Aggregate
)

var (
	RunOne = sim.RunOne
	// ParseSweepSpec parses a "scenario=... interval=... retry=..." grid;
	// RunSweep fans it across a worker pool with byte-identical results
	// at any worker count.
	ParseSweepSpec       = sweep.ParseSweepSpec
	RunSweep             = sweep.Run
	DefaultSweepProfiles = sweep.DefaultProfiles
	DefaultSweepBase     = sweep.DefaultBase
)

// NewRandSource returns a deterministic random source for distribution
// sampling.
func NewRandSource(seed int64) *randx.Source { return randx.NewSource(seed) }
