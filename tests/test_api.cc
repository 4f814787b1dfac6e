/**
 * @file
 * Table 1 API tests: mode discipline, the full inference call
 * sequence through an InferenceSession (Status-reporting query state
 * machine), and SSD-mode commands.
 */

#include <gtest/gtest.h>

#include "ecssd/api.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"

using namespace ecssd;

namespace
{

struct ApiFixture
{
    ApiFixture()
        : spec(makeSpec()), model(spec, 1)
    {
        options.ssd = ssdsim::smallTestConfig();
        options.ssd.channels = 8;
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("GNMT-E32K"), 512);
        spec.hiddenDim = 128;
        return spec;
    }

    EcssdOptions options;
    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
};

} // namespace

TEST(EcssdApi, StartsInSsdMode)
{
    EcssdApi api;
    EXPECT_EQ(api.mode(), Mode::Ssd);
    api.ecssdEnable();
    EXPECT_EQ(api.mode(), Mode::Accelerator);
    api.ecssdDisable();
    EXPECT_EQ(api.mode(), Mode::Ssd);
}

TEST(EcssdApi, AcceleratorCallsRequireAcceleratorMode)
{
    ApiFixture f;
    EcssdApi api(f.options);
    EXPECT_THROW(api.weightDeploy(f.model.weights(), f.spec),
                 sim::FatalError);
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);
    InferenceSession session = api.beginInference();
    xclass::ApproximateClassifier::Prediction prediction;
    EXPECT_EQ(session.sendInt4(feature), Status::WrongMode);
    EXPECT_EQ(session.screen(), Status::WrongMode);
    EXPECT_EQ(session.classify(), Status::WrongMode);
    EXPECT_EQ(session.results(5, prediction), Status::WrongMode);
}

TEST(EcssdApi, ComputeCallsRequireDeployedWeights)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);
    InferenceSession session = api.beginInference();
    EXPECT_EQ(session.sendInt4(feature), Status::NotDeployed);
    EXPECT_THROW(api.filterThreshold(0.0), sim::FatalError);
}

TEST(EcssdApi, FullInferenceSequence)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    const sim::Tick deploy =
        api.weightDeploy(f.model.weights(), f.spec);
    EXPECT_GT(deploy, 0u);

    sim::Rng rng(2);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 4; ++q)
        calibration.push_back(f.model.sampleQuery(rng));
    api.calibrateThreshold(calibration);

    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(query), Status::Ok);
    ASSERT_EQ(session.sendCfp32(query), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
    EXPECT_LT(session.candidateCount(), f.spec.categories);
    ASSERT_EQ(session.classify(), Status::Ok);
    EXPECT_GT(api.lastInferenceLatency(), 0u);
    EXPECT_EQ(api.lastInferenceLatency(), session.latency());

    xclass::ApproximateClassifier::Prediction prediction;
    ASSERT_EQ(session.results(5, prediction), Status::Ok);
    EXPECT_EQ(prediction.topCategories.size(), 5u);
    EXPECT_EQ(prediction.candidateCount, session.candidateCount());
    // Scores are sorted descending.
    for (std::size_t i = 1; i < prediction.topScores.size(); ++i)
        EXPECT_GE(prediction.topScores[i - 1],
                  prediction.topScores[i]);
}

TEST(EcssdApi, PredictionMatchesDirectClassifier)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(3);
    const std::vector<float> query = f.model.sampleQuery(rng);
    api.filterThreshold(-1e30); // pass everything: exact top-k
    InferenceSession session = api.beginInference();
    ASSERT_EQ(session.sendInt4(query), Status::Ok);
    ASSERT_EQ(session.sendCfp32(query), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    ASSERT_EQ(session.classify(), Status::Ok);
    xclass::ApproximateClassifier::Prediction api_pred;
    ASSERT_EQ(session.results(3, api_pred), Status::Ok);

    const xclass::ApproximateClassifier reference(
        f.model.weights(), f.spec, f.options.seed);
    const auto exact = reference.exact(query, 3);
    EXPECT_GE(xclass::recall(exact.topCategories,
                             api_pred.topCategories),
              0.66);
}

TEST(EcssdApi, SsdModeReadWrite)
{
    ApiFixture f;
    EcssdApi api(f.options);
    const sim::Tick wrote = api.ssdWrite(7);
    EXPECT_GT(wrote, 0u);
    const sim::Tick read = api.ssdRead(7);
    EXPECT_GT(read, 0u);
}

TEST(EcssdApi, SsdCallsRequireSsdMode)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    EXPECT_THROW(api.ssdWrite(0), sim::FatalError);
    EXPECT_THROW(api.ssdRead(0), sim::FatalError);
}

TEST(EcssdApi, PreAlignIsTheHostPrimitive)
{
    const std::vector<float> values{1.0f, 0.5f, -0.25f};
    const numeric::Cfp32Vector aligned = EcssdApi::preAlign(values);
    EXPECT_EQ(aligned.size(), 3u);
    EXPECT_FLOAT_EQ(aligned.toFloat(0), 1.0f);
}

TEST(EcssdApi, NewQueryDropsPreviousCandidates)
{
    // Regression: the candidate count used to keep serving the
    // previous query's count after a new input was sent.
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(5);
    InferenceSession session = api.beginInference();
    const std::vector<float> first = f.model.sampleQuery(rng);
    ASSERT_EQ(session.sendInt4(first), Status::Ok);
    ASSERT_EQ(session.sendCfp32(first), Status::Ok);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);

    const std::vector<float> second = f.model.sampleQuery(rng);
    ASSERT_EQ(session.sendInt4(second), Status::Ok);
    EXPECT_EQ(session.candidateCount(), 0u);
    EXPECT_EQ(session.classify(), Status::NotScreened);
    ASSERT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
}

// --- InferenceSession --------------------------------------------------

TEST(InferenceSession, ReportsModeAndDeploymentStatus)
{
    ApiFixture f;
    EcssdApi api(f.options);
    std::vector<float> feature(f.spec.hiddenDim, 1.0f);

    InferenceSession ssd_mode = api.beginInference();
    EXPECT_EQ(ssd_mode.sendInt4(feature), Status::WrongMode);

    api.ecssdEnable();
    InferenceSession undeployed = api.beginInference();
    EXPECT_EQ(undeployed.sendInt4(feature), Status::NotDeployed);
    EXPECT_EQ(undeployed.screen(), Status::NotDeployed);
}

TEST(InferenceSession, FullSequenceReturnsOk)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(6);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    EXPECT_EQ(session.sendInt4(query), Status::Ok);
    EXPECT_EQ(session.sendCfp32(query), Status::Ok);
    EXPECT_EQ(session.screen(), Status::Ok);
    EXPECT_GT(session.candidateCount(), 0u);
    EXPECT_EQ(session.classify(), Status::Ok);
    EXPECT_GT(session.latency(), 0u);

    xclass::ApproximateClassifier::Prediction prediction;
    EXPECT_EQ(session.results(3, prediction), Status::Ok);
    EXPECT_EQ(prediction.topCategories.size(), 3u);
    EXPECT_EQ(prediction.candidateCount, session.candidateCount());
}

TEST(InferenceSession, SequenceMisuseReturnsStatusNotDeath)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(7);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession session = api.beginInference();
    xclass::ApproximateClassifier::Prediction prediction;

    EXPECT_EQ(session.screen(), Status::MissingInput);
    EXPECT_EQ(session.classify(), Status::MissingInput);
    EXPECT_EQ(session.results(1, prediction),
              Status::NotClassified);

    std::vector<float> wrong(f.spec.hiddenDim + 1, 1.0f);
    EXPECT_EQ(session.sendInt4(wrong), Status::DimensionMismatch);
    EXPECT_EQ(session.sendCfp32(wrong), Status::DimensionMismatch);

    EXPECT_EQ(session.sendInt4(query), Status::Ok);
    EXPECT_EQ(session.sendCfp32(query), Status::Ok);
    // classify() before screen(): input present, candidates absent.
    EXPECT_EQ(session.classify(), Status::NotScreened);
    EXPECT_EQ(session.screen(), Status::Ok);
    EXPECT_EQ(session.classify(), Status::Ok);
    EXPECT_EQ(session.results(1, prediction), Status::Ok);
}

TEST(InferenceSession, RedeployTurnsSessionsStale)
{
    ApiFixture f;
    EcssdApi api(f.options);
    api.ecssdEnable();
    api.weightDeploy(f.model.weights(), f.spec);

    sim::Rng rng(8);
    const std::vector<float> query = f.model.sampleQuery(rng);
    InferenceSession old_session = api.beginInference();
    EXPECT_EQ(old_session.sendInt4(query), Status::Ok);

    api.weightDeploy(f.model.weights(), f.spec);
    EXPECT_EQ(old_session.sendInt4(query), Status::StaleSession);
    EXPECT_EQ(old_session.screen(), Status::StaleSession);

    InferenceSession fresh = api.beginInference();
    EXPECT_EQ(fresh.sendInt4(query), Status::Ok);
    EXPECT_EQ(fresh.screen(), Status::Ok);
}

TEST(InferenceSession, StatusNamesAreStable)
{
    EXPECT_STREQ(toString(Status::Ok), "ok");
    EXPECT_STREQ(toString(Status::NotScreened), "not-screened");
    EXPECT_STREQ(toString(Status::StaleSession), "stale-session");
}
