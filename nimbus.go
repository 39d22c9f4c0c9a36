// Package nimbus is a Go implementation of Nimbus: model-based pricing
// (MBP) for machine learning in a data marketplace, after Chen, Koutris and
// Kumar ("Model-based Pricing for Machine Learning in a Data Marketplace";
// demonstrated as Nimbus at SIGMOD 2019).
//
// Instead of selling raw data, a Nimbus broker trains the optimal model
// instance once and sells noisy versions of it. The noise control parameter
// δ governs the expected error of the sold instance, and the price is a
// function of the quality knob x = 1/δ that is provably arbitrage-free:
// non-negative, monotone and subadditive (Theorem 5 of the paper). Revenue
// is maximized with an O(n²) dynamic program over the seller's market
// research, within a factor two of the coNP-hard exact optimum and
// empirically indistinguishable from it.
//
// # Quickstart
//
//	pair, _ := nimbus.NewPair(nimbus.Simulated1(nimbus.GenConfig{Rows: 10000, Seed: 1}), nimbus.NewRand(2))
//	seller, _ := nimbus.NewSeller(pair, nimbus.Research{
//		Value:  func(err float64) float64 { return 100 / (1 + err) },
//		Demand: func(err float64) float64 { return 1 },
//	})
//	broker := nimbus.NewBroker(3)
//	offering, _ := broker.List(nimbus.OfferingConfig{Seller: seller, Model: nimbus.LinearRegression{}})
//	buyer, _ := nimbus.NewBuyer("alice", 50)
//	purchase, _ := buyer.BuyBest(broker, offering.Name, "squared")
//	fmt.Println(purchase.Price, purchase.ExpectedError, purchase.Weights)
//
// The facade re-exports the library's building blocks so downstream users
// never import internal packages directly: datasets and generators
// (Table 3), ML models and losses (Table 2), noise mechanisms (Section 4),
// arbitrage-free pricing functions and error transformations (Sections 3–4),
// revenue optimization (Section 5), the market agents, and the
// multi-dataset marketplace with its HTTP API.
package nimbus

import (
	"nimbus/internal/aggregate"
	"nimbus/internal/dataset"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/rng"
	"nimbus/internal/server"
	"nimbus/internal/vec"
)

// Datasets (Table 3) and relational substrate.
type (
	// Dataset is a labeled relation of examples z = (x, y).
	Dataset = dataset.Dataset
	// Pair is a train/test split offered for sale.
	Pair = dataset.Pair
	// Task distinguishes regression from classification.
	Task = dataset.Task
	// GenConfig configures the synthetic generators.
	GenConfig = dataset.GenConfig
	// DatasetStats is one row of Table 3.
	DatasetStats = dataset.Stats
	// Matrix is the dense row-major design matrix used by Dataset.
	Matrix = vec.Matrix
)

// NewMatrix allocates a zero rows x cols design matrix (fill Data row-major
// and pass it to NewDataset).
func NewMatrix(rows, cols int) *Matrix { return vec.NewMatrix(rows, cols) }

// Dataset task values.
const (
	Regression     = dataset.Regression
	Classification = dataset.Classification
)

// Generator and I/O functions re-exported from the dataset substrate.
var (
	// Simulated1 generates the paper's synthetic regression dataset.
	Simulated1 = dataset.Simulated1
	// Simulated2 generates the paper's synthetic classification dataset.
	Simulated2 = dataset.Simulated2
	// StandIn generates a synthetic stand-in for a UCI dataset by name
	// (YearMSD, CASP, CovType, SUSY).
	StandIn = dataset.StandIn
	// DatasetSuite generates all six Table 3 datasets at a row scale.
	DatasetSuite = dataset.Suite
	// NewDataset builds a dataset from a design matrix and targets.
	NewDataset = dataset.New
	// NewPair splits a dataset 75/25 into train/test.
	NewPair = dataset.NewPair
	// ReadCSV loads a labeled relation from CSV.
	ReadCSV = dataset.ReadCSV
)

// ML models and error functions (Table 2).
type (
	// Model is an ML model from the broker's menu.
	Model = ml.Model
	// Loss is an error function λ or ε.
	Loss = ml.Loss
	// ExpectedLoss is a Loss with an exact expectation under Gaussian noise.
	ExpectedLoss = ml.ExpectedLoss
	// LinearRegression is least squares, fit in closed form.
	LinearRegression = ml.LinearRegression
	// LogisticRegression is L2 logistic regression fit by Newton's method.
	LogisticRegression = ml.LogisticRegression
	// LinearSVM is the L2 linear SVM fit by subgradient descent.
	LinearSVM = ml.LinearSVM
	// SquaredLoss is the least-squares error function.
	SquaredLoss = ml.SquaredLoss
	// LogisticLoss is the logistic error function over ±1 labels.
	LogisticLoss = ml.LogisticLoss
	// HingeLoss is the SVM hinge error function.
	HingeLoss = ml.HingeLoss
	// ZeroOneLoss is the misclassification rate.
	ZeroOneLoss = ml.ZeroOneLoss
	// GradientDescent is the generic full-gradient trainer.
	GradientDescent = ml.GradientDescent
	// MiniBatchSGD is the stochastic trainer for paper-scale datasets.
	MiniBatchSGD = ml.MiniBatchSGD
	// Standardizer centers and scales features fit on the train set.
	Standardizer = ml.Standardizer
	// Lasso is L1-regularized (elastic-net) least squares fit by ISTA.
	Lasso = ml.Lasso
)

// Model and loss lookups for CLI/HTTP surfaces.
var (
	// ModelByName resolves a menu model by name.
	ModelByName = ml.ModelByName
	// LossByName resolves an error function by name.
	LossByName = ml.LossByName
	// FitStandardizer computes per-column statistics on a dataset.
	FitStandardizer = ml.FitStandardizer
	// PolynomialFeatures expands a relation with powers and interactions.
	PolynomialFeatures = ml.PolynomialFeatures
	// Sparsity reports the fraction of exactly-zero weights.
	Sparsity = ml.Sparsity
	// EvaluateRegression scores a weight vector with RMSE/MAE/R².
	EvaluateRegression = ml.EvaluateRegression
	// EvaluateClassification scores a classifier with accuracy/F1/AUC.
	EvaluateClassification = ml.EvaluateClassification
)

// Metric reports.
type (
	// RegressionReport is EvaluateRegression's output.
	RegressionReport = ml.RegressionReport
	// ClassificationReport is EvaluateClassification's output.
	ClassificationReport = ml.ClassificationReport
)

// Noise mechanisms (Section 4).
type (
	// Mechanism perturbs the optimal instance with NCP-calibrated noise.
	Mechanism = noise.Mechanism
	// Gaussian is the paper's primary mechanism K_G.
	Gaussian = noise.Gaussian
	// Laplace is the alternative Laplace-noise mechanism.
	Laplace = noise.Laplace
	// Uniform is the additive uniform-noise mechanism of Example 1.
	Uniform = noise.Uniform
)

// Pricing (Sections 3–4).
type (
	// PriceFunction is an arbitrage-free piecewise-linear pricing function
	// over the quality axis x = 1/δ.
	PriceFunction = pricing.Function
	// PricePointXY is a knot of a pricing function.
	PricePointXY = pricing.Point
	// ErrorCurve maps quality to expected reporting error.
	ErrorCurve = pricing.ErrorCurve
	// PriceErrorCurve is the buyer-facing menu of (quality, error, price).
	PriceErrorCurve = pricing.PriceErrorCurve
	// TransformConfig configures a Monte-Carlo error transformation.
	TransformConfig = pricing.TransformConfig
)

// Pricing constructors and checks.
var (
	// NewPriceFunction builds a pricing function from knots.
	NewPriceFunction = pricing.NewFunction
	// MonteCarloTransform estimates the error transformation empirically.
	MonteCarloTransform = pricing.MonteCarloTransform
	// GaussianTransform computes it exactly for the Gaussian mechanism.
	GaussianTransform = pricing.GaussianTransform
	// DefaultGrid is the paper's quality grid of n points in [1, 100].
	DefaultGrid = pricing.DefaultGrid
	// CheckSubadditiveOnGrid verifies Theorem 5's subadditivity condition.
	CheckSubadditiveOnGrid = pricing.CheckSubadditiveOnGrid
	// CheckMonotoneOnGrid verifies price monotonicity.
	CheckMonotoneOnGrid = pricing.CheckMonotoneOnGrid
)

// Revenue optimization (Section 5).
type (
	// BuyerPoint is one market-research point (quality, valuation, mass).
	BuyerPoint = opt.BuyerPoint
	// RevenueProblem is a revenue-maximization instance.
	RevenueProblem = opt.Problem
	// InterpTarget is a seller-desired price point for interpolation.
	InterpTarget = opt.PricePoint
)

// Revenue optimizers and baselines.
var (
	// NewRevenueProblem validates buyer points into a problem.
	NewRevenueProblem = opt.NewProblem
	// MaximizeRevenueDP is the paper's O(n²) Algorithm 1.
	MaximizeRevenueDP = opt.MaximizeRevenueDP
	// MaximizeRevenueBruteForce is the exact exponential Algorithm 2.
	MaximizeRevenueBruteForce = opt.MaximizeRevenueBruteForce
	// InterpolateL2 solves the T²_PI price-interpolation program.
	InterpolateL2 = opt.InterpolateL2
	// InterpolateL1 solves the T^∞_PI program as an LP.
	InterpolateL1 = opt.InterpolateL1
	// Lin, MaxC, MedC, OptC are the pricing baselines of Section 6.2.
	Lin  = opt.Lin
	MaxC = opt.MaxC
	MedC = opt.MedC
	OptC = opt.OptC
	// Monotonize repairs noisy research valuations.
	Monotonize = opt.Monotonize
	// SubadditiveInterpolationFeasible decides the paper's coNP-hard
	// SUBADDITIVE INTERPOLATION problem exactly (exponential worst case).
	SubadditiveInterpolationFeasible = opt.SubadditiveInterpolationFeasible
	// MaxInterpolationViolation locates the largest arbitrage hole in a
	// desired price list.
	MaxInterpolationViolation = opt.MaxInterpolationViolation
	// EnvelopePrice is the arbitrage-free covering-envelope extension of
	// fixed price points.
	EnvelopePrice = opt.EnvelopePrice
	// CompressMenu picks a k-version menu and prices it against rolled-up
	// demand.
	CompressMenu = opt.CompressMenu
	// RolledUpRevenue evaluates a short menu against the full population.
	RolledUpRevenue = opt.RolledUpRevenue
	// InterpolateL2Weighted is the seller-weighted interpolation variant.
	InterpolateL2Weighted = opt.InterpolateL2Weighted
)

// CompressedMenu is the result of a CompressMenu run.
type CompressedMenu = opt.CompressedMenu

// Market agents (Section 3).
type (
	// Seller provides data and market research.
	Seller = market.Seller
	// Broker trains once and sells noisy versions at arbitrage-free prices.
	Broker = market.Broker
	// Buyer purchases instances against a budget.
	Buyer = market.Buyer
	// Offering is one listed (dataset, model) product.
	Offering = market.Offering
	// OfferingConfig configures a listing.
	OfferingConfig = market.OfferingConfig
	// Purchase is a completed sale with the delivered weights.
	Purchase = market.Purchase
	// Research holds the seller's value and demand curves over error.
	Research = market.Research
	// ResearchSample is one market-research survey observation.
	ResearchSample = market.ResearchSample
)

// Market constructors.
var (
	// NewSeller validates a seller.
	NewSeller = market.NewSeller
	// NewBroker returns an empty broker.
	NewBroker = market.NewBroker
	// NewBuyer returns a buyer with a budget.
	NewBuyer = market.NewBuyer
	// ResearchFromSamples fits Research curves to noisy survey points.
	ResearchFromSamples = market.ResearchFromSamples
)

// The marketplace: a registry of per-dataset markets (memory-only, or
// journaled under a data directory), served over HTTP as the Nimbus demo
// surface.
type (
	// Registry is the marketplace: one market per listed dataset.
	Registry = registry.Registry
	// RegistryConfig configures a registry; an empty Root keeps it in
	// memory only.
	RegistryConfig = registry.Config
	// DatasetSpec describes one dataset listing: its source, the model
	// sold and the curve parameters.
	DatasetSpec = registry.Spec
	// Server is the marketplace's HTTP handler.
	Server = server.Server
	// Client is the Go client for the broker API.
	Client = server.Client
	// BuyRequest selects one of the three purchase options over HTTP.
	BuyRequest = server.BuyRequest
)

// Marketplace constructors.
var (
	// OpenRegistry opens a registry, recovering every market listed under
	// its Root.
	OpenRegistry = registry.Open
	// NewServer serves a registry over the HTTP API.
	NewServer = server.NewMulti
	// NewClient returns a client for a broker base URL.
	NewClient = server.NewClient
)

// NewRand returns the library's seedable random source, used by dataset
// splits and generators.
func NewRand(seed int64) *rng.Source { return rng.New(seed) }

// Extensions beyond the core paper (its stated future work).
type (
	// CVResult is one candidate's cross-validation score.
	CVResult = ml.CVResult
	// DPGuarantee is an (ε, δ_DP) differential-privacy statement.
	DPGuarantee = noise.DPGuarantee
	// AffordableResult is a revenue-vs-affordability trade-off point.
	AffordableResult = opt.AffordableResult
	// AggregateOffering prices a column average (Example 1 of the paper).
	AggregateOffering = aggregate.Offering
	// AggregateConfig configures an aggregate offering.
	AggregateConfig = aggregate.Config
	// AggregateMechanism selects one of Example 1's noise mechanisms.
	AggregateMechanism = aggregate.Mechanism
)

// Example 1's aggregate mechanisms.
const (
	// AggAdditive is K₁: h* + U[−δ, δ].
	AggAdditive = aggregate.Additive
	// AggMultiplicative is K₂: h* · U[1−δ, 1+δ].
	AggMultiplicative = aggregate.Multiplicative
)

// Extension entry points.
var (
	// SelectModel cross-validates candidate models on a dataset.
	SelectModel = ml.SelectModel
	// DefaultCandidates is the broker's per-task candidate menu.
	DefaultCandidates = ml.DefaultCandidates
	// GaussianDPEpsilon reports the DP guarantee a sold version carries.
	GaussianDPEpsilon = noise.GaussianDPEpsilon
	// NCPForDP inverts it: the smallest NCP meeting a DP target.
	NCPForDP = noise.NCPForDP
	// ERMSensitivity bounds the L2 sensitivity of regularized ERM models.
	ERMSensitivity = noise.ERMSensitivity
	// MaximizeRevenueWithAffordability adds a fairness constraint to the DP.
	MaximizeRevenueWithAffordability = opt.MaximizeRevenueWithAffordability
	// AffordabilityFrontier traces the revenue/fairness trade-off.
	AffordabilityFrontier = opt.AffordabilityFrontier
	// NewAggregateOffering prices a column average per Example 1.
	NewAggregateOffering = aggregate.New
)
