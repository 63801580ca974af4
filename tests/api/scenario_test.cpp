#include "api/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/json_value.hpp"

namespace papc::api {
namespace {

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
    return std::any_of(problems.begin(), problems.end(),
                       [&needle](const std::string& p) {
                           return p.find(needle) != std::string::npos;
                       });
}

TEST(Scenario, DefaultsAreValid) {
    EXPECT_TRUE(validate(Scenario{}).empty());
}

TEST(Scenario, ValidationCatchesEachBadKnob) {
    Scenario s;
    s.n = 1;
    s.k = 1;
    s.alpha = 0.5;
    s.lambda = 0.0;
    s.msg_rate = -1.0;
    s.gamma = 1.5;
    s.epsilon = 1.0;
    s.zipf_s = 0.0;
    s.tail_fraction = 1.0;
    s.max_time = 0.0;
    s.sample_interval = 0.0;
    const std::vector<std::string> problems = validate(s);
    EXPECT_TRUE(mentions(problems, "n must"));
    EXPECT_TRUE(mentions(problems, "k must"));
    EXPECT_TRUE(mentions(problems, "alpha"));
    EXPECT_TRUE(mentions(problems, "lambda"));
    EXPECT_TRUE(mentions(problems, "msg-rate"));
    EXPECT_TRUE(mentions(problems, "gamma"));
    EXPECT_TRUE(mentions(problems, "epsilon"));
    EXPECT_TRUE(mentions(problems, "zipf-s"));
    EXPECT_TRUE(mentions(problems, "tail-fraction"));
    EXPECT_TRUE(mentions(problems, "max-time"));
    EXPECT_TRUE(mentions(problems, "sample-interval"));
}

TEST(Scenario, GapMustStayBelowN) {
    Scenario s;
    s.n = 100;
    s.gap = 100;
    EXPECT_TRUE(mentions(validate(s), "gap"));
    s.gap = 99;
    EXPECT_TRUE(validate(s).empty());
    s.gap = 0;  // 0 = derive n/10
    EXPECT_TRUE(validate(s).empty());
}

TEST(Scenario, WorkloadNamesRoundTrip) {
    for (const Workload w :
         {Workload::kBiased, Workload::kTwoFrontRunners, Workload::kAdditiveGap,
          Workload::kUniform, Workload::kZipf}) {
        Workload parsed = Workload::kBiased;
        ASSERT_TRUE(try_parse_workload(to_string(w), &parsed));
        EXPECT_EQ(parsed, w);
    }
    Workload unused = Workload::kBiased;
    EXPECT_FALSE(try_parse_workload("nope", &unused));
}

TEST(Scenario, SetFieldRoundTripsEveryField) {
    // set(get(x)) is the identity on every field: the canonical string
    // forms and the parsers agree.
    Scenario modified;
    ASSERT_TRUE(set_field(modified, "protocol", "multi").empty());
    ASSERT_TRUE(set_field(modified, "n", "4096").empty());
    ASSERT_TRUE(set_field(modified, "k", "7").empty());
    ASSERT_TRUE(set_field(modified, "alpha", "2.25").empty());
    ASSERT_TRUE(set_field(modified, "workload", "zipf").empty());
    ASSERT_TRUE(set_field(modified, "zipf-s", "1.5").empty());
    ASSERT_TRUE(set_field(modified, "gap", "11").empty());
    ASSERT_TRUE(set_field(modified, "tail-fraction", "0.3").empty());
    ASSERT_TRUE(set_field(modified, "lambda", "2").empty());
    ASSERT_TRUE(set_field(modified, "msg-rate", "3.5").empty());
    ASSERT_TRUE(set_field(modified, "gamma", "0.4").empty());
    ASSERT_TRUE(set_field(modified, "epsilon", "0.05").empty());
    ASSERT_TRUE(set_field(modified, "max-steps", "123").empty());
    ASSERT_TRUE(set_field(modified, "max-time", "77.5").empty());
    ASSERT_TRUE(set_field(modified, "record-series", "false").empty());
    ASSERT_TRUE(set_field(modified, "record-every", "9").empty());
    ASSERT_TRUE(set_field(modified, "sample-interval", "0.5").empty());
    ASSERT_TRUE(set_field(modified, "threads", "3").empty());
    ASSERT_TRUE(set_field(modified, "window", "0.125").empty());

    for (const std::string& field : scenario_field_names()) {
        Scenario copy;
        const std::string rendered = get_field(modified, field);
        ASSERT_TRUE(set_field(copy, field, rendered).empty())
            << field << " = " << rendered;
        EXPECT_EQ(get_field(copy, field), rendered) << field;
    }
    EXPECT_EQ(modified.threads, 3U);
    EXPECT_EQ(modified.workload, Workload::kZipf);
    EXPECT_FALSE(modified.record_series);
}

TEST(Scenario, SetFieldRejectsUnknownFieldAndBadValues) {
    Scenario s;
    EXPECT_NE(set_field(s, "lamda", "2"), "");  // the classic typo
    EXPECT_NE(set_field(s, "n", "ten"), "");
    EXPECT_NE(set_field(s, "n", "-5"), "");
    EXPECT_NE(set_field(s, "n", "10x"), "");
    EXPECT_NE(set_field(s, "alpha", ""), "");
    EXPECT_NE(set_field(s, "workload", "zipfian"), "");
    EXPECT_NE(set_field(s, "threads", "many"), "");
    EXPECT_NE(set_field(s, "record-series", "maybe"), "");
    // Failed sets leave the scenario untouched.
    EXPECT_EQ(s.n, Scenario{}.n);
    EXPECT_EQ(s.threads, Scenario{}.threads);
}

TEST(Scenario, RemovedQueueFieldIsUnknown) {
    // The event queue is no longer a knob: "queue" is an unknown field on
    // every surface that goes through set_field (CLI flags, sweep axes).
    Scenario s;
    EXPECT_EQ(set_field(s, "queue", "heap"), "unknown scenario field 'queue'");
    EXPECT_EQ(field_help("queue"), "");
    EXPECT_EQ(std::count(scenario_field_names().begin(),
                         scenario_field_names().end(), "queue"),
              0);
}

TEST(Scenario, JsonScenarioCarryingQueueIsRejected) {
    // A JSON scenario applied key by key reports the stale "queue" key as
    // an unknown field and still takes every other key.
    const JsonParseResult parsed =
        parse_json(R"({"protocol": "async", "n": 512, "queue": "heap"})");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    Scenario s;
    std::vector<std::string> errors;
    for (const auto& [key, value] : parsed.value.members()) {
        const std::string text =
            value.is_string() ? value.as_string()
                              : std::to_string(static_cast<long long>(
                                    value.as_number()));
        const std::string error = set_field(s, key, text);
        if (!error.empty()) errors.push_back(error);
    }
    EXPECT_EQ(errors,
              std::vector<std::string>{"unknown scenario field 'queue'"});
    EXPECT_EQ(s.protocol, "async");
    EXPECT_EQ(s.n, 512U);
}

TEST(Scenario, FieldTableIsComplete) {
    const std::vector<std::string>& names = scenario_field_names();
    // The core fields, threads, window and the nine fault knobs; the event
    // queue is no longer a knob.
    EXPECT_EQ(names.size(), 28U);
    for (const std::string& field : names) {
        EXPECT_FALSE(field_help(field).empty()) << field;
        EXPECT_FALSE(get_field(Scenario{}, field).empty()) << field;
    }
}

TEST(Scenario, JsonEmitsEveryField) {
    Scenario s;
    s.protocol = "validated";
    s.n = 123;
    JsonWriter writer;
    write_json(writer, s);
    const JsonParseResult parsed = parse_json(writer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.at("protocol").as_string(), "validated");
    EXPECT_DOUBLE_EQ(parsed.value.at("n").as_number(), 123.0);
    for (const std::string& field : scenario_field_names()) {
        EXPECT_NE(parsed.value.find(field), nullptr) << field;
    }
    EXPECT_EQ(parsed.value.members().size(), scenario_field_names().size());
    EXPECT_EQ(parsed.value.find("queue"), nullptr);
}

}  // namespace
}  // namespace papc::api
