#include "core/plan_io.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

PhysicalDesign MakeDesign() {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(10), "src_store");
  std::vector<LogicalOp> ops;
  ops.push_back(MakeFilter("flt", {Predicate::NotNull("amount")}, 0.9));
  ops.push_back(MakeFunction(
      "fn", {ColumnTransform::Scale("scaled", "amount", 2.0),
             ColumnTransform::Drop("note")}));
  ops.push_back(MakeSort("srt", {{"id", false}}));
  const std::vector<Schema> schemas =
      BindLogicalChain(source->schema(), ops).value();
  auto target = std::make_shared<MemTable>("tgt_store", schemas.back());
  PhysicalDesign design;
  design.flow = LogicalFlow("xml_flow", source, std::move(ops), target);
  design.threads = 4;
  design.parallel.partitions = 4;
  design.parallel.scheme = PartitionScheme::kHash;
  design.parallel.hash_column = "id";
  design.parallel.range_begin = 0;
  design.parallel.range_end = 2;
  design.recovery_points = {0, 2};
  design.redundancy = 3;
  design.loads_per_day = 96;
  design.provenance_columns = true;
  return design;
}

TEST(PlanIoTest, SpecCapturesStructureAndChoices) {
  const DesignSpec spec = SpecOf(MakeDesign());
  EXPECT_EQ(spec.flow_id, "xml_flow");
  EXPECT_EQ(spec.source, "src_store");
  EXPECT_EQ(spec.target, "tgt_store");
  ASSERT_EQ(spec.ops.size(), 3u);
  EXPECT_EQ(spec.ops[0].kind, "filter");
  EXPECT_EQ(spec.ops[1].drops, std::vector<std::string>{"note"});
  EXPECT_TRUE(spec.ops[2].blocking);
  EXPECT_EQ(spec.partitions, 4u);
  EXPECT_EQ(spec.partition_scheme, "hash");
  EXPECT_EQ(spec.recovery_points, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(spec.redundancy, 3u);
  EXPECT_TRUE(spec.provenance_columns);
}

TEST(PlanIoTest, ExportParseRoundTrip) {
  const DesignSpec original = SpecOf(MakeDesign());
  const std::string xml = ExportDesignXml(original);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, RoundTripWithDefaultsAndUnboundedRange) {
  PhysicalDesign design;
  design.flow = MakeDesign().flow;
  const DesignSpec original = SpecOf(design);
  EXPECT_EQ(original.range_end, static_cast<size_t>(-1));
  const Result<DesignSpec> parsed =
      ParseDesignXml(ExportDesignXml(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, SpecialCharactersEscaped) {
  PhysicalDesign design = MakeDesign();
  design.parallel.hash_column = "a<b>&\"c'";
  const DesignSpec original = SpecOf(design);
  const std::string xml = ExportDesignXml(original);
  EXPECT_EQ(xml.find("a<b>"), std::string::npos);  // escaped in output
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().hash_column, "a<b>&\"c'");
}

TEST(PlanIoTest, XmlLooksLikeXml) {
  const std::string xml = ExportDesignXml(MakeDesign());
  EXPECT_EQ(xml.rfind("<?xml", 0), 0u);
  EXPECT_NE(xml.find("<physical_design"), std::string::npos);
  EXPECT_NE(xml.find("<operator name=\"flt\" kind=\"filter\""),
            std::string::npos);
  EXPECT_NE(xml.find("<cut position=\"0\"/>"), std::string::npos);
  EXPECT_NE(xml.find("</physical_design>"), std::string::npos);
}

TEST(PlanIoTest, StreamingKnobsRoundTrip) {
  PhysicalDesign design = MakeDesign();
  design.streaming = true;
  design.channel_capacity = 3;
  const DesignSpec original = SpecOf(design);
  EXPECT_TRUE(original.streaming);
  EXPECT_EQ(original.channel_capacity, 3u);
  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("streaming=\"1\""), std::string::npos);
  EXPECT_NE(xml.find("channel_capacity=\"3\""), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().streaming);
  EXPECT_EQ(parsed.value().channel_capacity, 3u);
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, JournalKnobsRoundTrip) {
  PhysicalDesign design = MakeDesign();
  design.journaled = true;
  design.journal_sync = JournalSync::kCommit;
  const DesignSpec original = SpecOf(design);
  EXPECT_TRUE(original.journaled);
  EXPECT_EQ(original.journal_sync, "commit");
  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("journaled=\"1\""), std::string::npos);
  EXPECT_NE(xml.find("journal_sync=\"commit\""), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().journaled);
  EXPECT_TRUE(parsed.value() == original);

  // Non-journaled designs export byte-identically to the pre-journal
  // format, and a garbled sync policy is rejected at parse time.
  const std::string plain_xml = ExportDesignXml(SpecOf(MakeDesign()));
  EXPECT_EQ(plain_xml.find("journal"), std::string::npos);
  const std::string bad = [&xml] {
    std::string s = xml;
    const size_t at = s.find("journal_sync=\"commit\"");
    return s.replace(at, std::string("journal_sync=\"commit\"").size(),
                     "journal_sync=\"sometimes\"");
  }();
  EXPECT_FALSE(ParseDesignXml(bad).ok());
}

TEST(PlanIoTest, ContainmentKnobsRoundTrip) {
  PhysicalDesign design = MakeDesign();
  design.error_policies = {ErrorPolicy::kFailFast, ErrorPolicy::kQuarantine,
                           ErrorPolicy::kSkip};
  design.error_budget.max_rows = 250;
  design.error_budget.max_fraction = 0.02;
  const DesignSpec original = SpecOf(design);
  ASSERT_EQ(original.ops.size(), 3u);
  EXPECT_EQ(original.ops[0].error_policy, "fail_fast");
  EXPECT_EQ(original.ops[1].error_policy, "quarantine");
  EXPECT_EQ(original.ops[2].error_policy, "skip");
  EXPECT_EQ(original.error_budget_max_rows, 250u);
  EXPECT_EQ(original.error_budget_max_fraction, 0.02);

  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("error_policy=\"quarantine\""), std::string::npos);
  EXPECT_NE(xml.find("error_budget_max_rows=\"250\""), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, DefaultContainmentStaysOutOfTheDocument) {
  // A design with no containment configured must export byte-identically
  // to the pre-containment format: no error_policy attributes, no budget
  // attributes (so existing exported documents stay stable).
  const std::string xml = ExportDesignXml(SpecOf(MakeDesign()));
  EXPECT_EQ(xml.find("error_policy"), std::string::npos);
  EXPECT_EQ(xml.find("error_budget"), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().ops[0].error_policy, "fail_fast");
  EXPECT_EQ(parsed.value().error_budget_max_rows,
            std::numeric_limits<size_t>::max());
  EXPECT_EQ(parsed.value().error_budget_max_fraction, 1.0);
}

TEST(PlanIoTest, UnlimitedBudgetSentinelRoundTrips) {
  PhysicalDesign design = MakeDesign();
  design.error_policies = {ErrorPolicy::kSkip};
  design.error_budget.max_rows = 10;  // fraction stays at the default
  const DesignSpec original = SpecOf(design);
  const std::string xml = ExportDesignXml(original);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().error_budget_max_rows, 10u);
  EXPECT_EQ(parsed.value().error_budget_max_fraction, 1.0);
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, BadContainmentAttributesRejected) {
  EXPECT_FALSE(ParseDesignXml("<physical_design>"
                              "<flow id=\"f\" source=\"s\" target=\"t\">"
                              "<operator name=\"op\" kind=\"filter\" "
                              "error_policy=\"retry_forever\"/>"
                              "</flow></physical_design>")
                   .ok());
  EXPECT_FALSE(ParseDesignXml("<physical_design "
                              "error_budget_max_fraction=\"1.5\">"
                              "<flow id=\"f\" source=\"s\" target=\"t\"/>"
                              "</physical_design>")
                   .ok());
}

TEST(PlanIoTest, LoweredPlanExportedAndReimported) {
  const DesignSpec original = SpecOf(MakeDesign());
  // The lowered stage graph rides along: extract, a partitioned unit
  // (router + 4 branches + merge), barriers for cuts {0, 2}, and the NMR
  // sink (collect + replica group + load).
  ASSERT_FALSE(original.plan_stages.empty());
  ASSERT_FALSE(original.plan_edges.empty());
  const auto count_kind = [&](const std::string& kind) {
    size_t count = 0;
    for (const PlanStageSpec& stage : original.plan_stages) {
      if (stage.kind == kind) ++count;
    }
    return count;
  };
  EXPECT_EQ(count_kind("extract"), 1u);
  EXPECT_EQ(count_kind("partition_branch"), 4u);
  EXPECT_EQ(count_kind("rp_barrier"), 2u);
  EXPECT_EQ(count_kind("replica_group"), 1u);

  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("<execution_plan>"), std::string::npos);
  EXPECT_NE(xml.find("<stage id=\"0\" kind=\"extract\""), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value().plan_stages == original.plan_stages);
  EXPECT_TRUE(parsed.value().plan_edges == original.plan_edges);
}

TEST(PlanIoTest, UnknownStageKindRejected) {
  const std::string xml =
      "<physical_design><flow id=\"f\" source=\"s\" target=\"t\"/>"
      "<execution_plan><stage id=\"0\" kind=\"quantum\"/></execution_plan>"
      "</physical_design>";
  EXPECT_FALSE(ParseDesignXml(xml).ok());
}

TEST(PlanIoTest, MalformedDocumentsError) {
  EXPECT_FALSE(ParseDesignXml("").ok());
  EXPECT_FALSE(ParseDesignXml("<physical_design>").ok());  // unterminated
  EXPECT_FALSE(ParseDesignXml("<wrong_root/>").ok());
  EXPECT_FALSE(
      ParseDesignXml("<physical_design></physical_design>").ok());  // no flow
  EXPECT_FALSE(ParseDesignXml("<physical_design><flow id=\"f\">"
                              "<operator kind=\"filter\"/>"  // missing name
                              "</flow></physical_design>")
                   .ok());
  EXPECT_FALSE(ParseDesignXml("<physical_design><flow id=\"f\"/>"
                              "<parallel scheme=\"teleport\"/>"
                              "</physical_design>")
                   .ok());
}

TEST(PlanIoTest, UnknownElementsIgnoredForCompatibility) {
  const std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design threads=\"2\">\n"
      "  <vendor_extension foo=\"bar\"/>\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\">\n"
      "    <operator name=\"op\" kind=\"filter\"/>\n"
      "    <annotation text=\"ignored\"/>\n"
      "  </flow>\n"
      "</physical_design>\n";
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().threads, 2u);
  EXPECT_EQ(parsed.value().ops.size(), 1u);
}

// Documents may carry a `columnar` attribute from when designs chose a
// kernel family. It names nothing now: such a document parses to the same
// design as without it, and no design writes it.
TEST(PlanIoTest, LegacyColumnarAttributeParsesToTheSameDesign) {
  PhysicalDesign design = MakeDesign();
  design.columnar = true;
  const DesignSpec original = SpecOf(design);
  EXPECT_TRUE(original == SpecOf(MakeDesign()));
  const std::string xml = ExportDesignXml(original);
  EXPECT_EQ(xml.find("columnar"), std::string::npos);
  std::string legacy = xml;
  const std::string root = "<physical_design";
  legacy.insert(legacy.find(root) + root.size(), " columnar=\"1\"");
  const Result<DesignSpec> parsed = ParseDesignXml(legacy);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == original);
}

// A boolean attribute is 0 or 1. Any other value is refused, naming the
// attribute, instead of parsing as false.
TEST(PlanIoTest, MangledBooleanAttributesAreRefused) {
  DesignSpec spec = SpecOf(MakeDesign());
  spec.has_service = true;
  const std::string xml = ExportDesignXml(spec);
  ASSERT_TRUE(ParseDesignXml(xml).ok());
  auto expect_refused = [](const std::string& doc,
                           const std::string& attribute) {
    const Result<DesignSpec> parsed = ParseDesignXml(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("'" + attribute + "'"),
              std::string::npos)
        << parsed.status();
  };
  for (const std::string attribute :
       {"provenance_columns", "audit_rejects", "streaming", "blocking",
        "admit_only_feasible"}) {
    const std::string key = " " + attribute + "=\"";
    const size_t value = xml.find(key);
    ASSERT_NE(value, std::string::npos) << attribute;
    const size_t begin = value + key.size();
    for (const std::string bad : {"9", "true", "", "01"}) {
      std::string mangled = xml;
      mangled.replace(begin, xml.find('"', begin) - begin, bad);
      expect_refused(mangled, attribute);
    }
  }
  // `journaled` appears only in journaled designs.
  std::string journaled = xml;
  const std::string root = "<physical_design";
  journaled.insert(journaled.find(root) + root.size(), " journaled=\"19\"");
  expect_refused(journaled, "journaled");
}

TEST(PlanIoTest, CommentsAndDeclarationsSkipped) {
  const std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<!-- generated by qox -->\n"
      "<physical_design>\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\"/>\n"
      "</physical_design>\n";
  EXPECT_TRUE(ParseDesignXml(xml).ok());
}

TEST(PlanIoTest, SlaAndServiceKnobsRoundTrip) {
  PhysicalDesign design = MakeDesign();
  design.sla_deadline_s = 42.5;
  DesignSpec original = SpecOf(design);
  EXPECT_EQ(original.sla_deadline_s, 42.5);
  original.has_service = true;
  original.service_workers = 8;
  original.service_max_concurrent = 3;
  original.service_policy = "fifo";
  original.service_admit_only_feasible = true;
  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("sla_deadline_s=\"42.5\""), std::string::npos);
  EXPECT_NE(xml.find("<service workers=\"8\""), std::string::npos);
  EXPECT_NE(xml.find("admit_only_feasible=\"1\""), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed.value() == original);

  // An unknown queue policy is a document from the future: rejected.
  const std::string bad = [&xml] {
    std::string s = xml;
    const size_t at = s.find("policy=\"fifo\"");
    return s.replace(at, std::string("policy=\"fifo\"").size(),
                     "policy=\"lottery\"");
  }();
  EXPECT_FALSE(ParseDesignXml(bad).ok());
}

TEST(PlanIoTest, SlaFreeDesignsStayOutOfTheDocument) {
  // Byte-stability: designs without an SLA or service context export the
  // exact pre-service document — no new attributes, no <service> element.
  const std::string xml = ExportDesignXml(SpecOf(MakeDesign()));
  EXPECT_EQ(xml.find("sla_deadline_s"), std::string::npos);
  EXPECT_EQ(xml.find("<service"), std::string::npos);
}

TEST(PlanIoTest, PreServiceDocumentsStillParse) {
  // Schema evolution: a document written before the SLA/service additions
  // (no sla_deadline_s attribute, no <service> element) loads with the
  // defaults — no SLA, no service context.
  const std::string xml =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design threads=\"2\" redundancy=\"1\">\n"
      "  <flow id=\"old\" source=\"s\" target=\"t\">\n"
      "    <operator name=\"op\" kind=\"filter\"/>\n"
      "  </flow>\n"
      "  <parallel partitions=\"2\" scheme=\"round_robin\"/>\n"
      "</physical_design>\n";
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().sla_deadline_s, 0.0);
  EXPECT_FALSE(parsed.value().has_service);
  // A negative SLA is rejected outright.
  const std::string bad =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design sla_deadline_s=\"-1\">\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\"/>\n"
      "</physical_design>\n";
  EXPECT_FALSE(ParseDesignXml(bad).ok());
}

TEST(PlanIoTest, CdcKnobsRoundTrip) {
  PhysicalDesign design = MakeDesign();
  design.cdc_shards = 4;
  design.cdc_slice_events = 32;
  design.cdc_update_rate_per_s = 250.0;
  const DesignSpec original = SpecOf(design);
  const std::string xml = ExportDesignXml(original);
  EXPECT_NE(xml.find("<cdc shards=\"4\" slice_events=\"32\""),
            std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().cdc_shards, 4u);
  EXPECT_EQ(parsed.value().cdc_slice_events, 32u);
  EXPECT_EQ(parsed.value().cdc_update_rate_per_s, 250.0);
  EXPECT_TRUE(parsed.value() == original);
}

TEST(PlanIoTest, NonCdcDesignsStayOutOfTheDocument) {
  // Byte-stability: a design that never enables CDC exports without a
  // <cdc> element, so pre-CDC documents are unchanged and still parse.
  const std::string xml = ExportDesignXml(MakeDesign());
  EXPECT_EQ(xml.find("<cdc"), std::string::npos);
  const Result<DesignSpec> parsed = ParseDesignXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().cdc_shards, 0u);
}

TEST(PlanIoTest, BadCdcAttributesRejected) {
  const std::string zero_shards =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design>\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\"/>\n"
      "  <cdc shards=\"0\"/>\n"
      "</physical_design>\n";
  EXPECT_FALSE(ParseDesignXml(zero_shards).ok());
  const std::string zero_slice =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design>\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\"/>\n"
      "  <cdc shards=\"2\" slice_events=\"0\"/>\n"
      "</physical_design>\n";
  EXPECT_FALSE(ParseDesignXml(zero_slice).ok());
  const std::string negative_rate =
      "<?xml version=\"1.0\"?>\n"
      "<physical_design>\n"
      "  <flow id=\"f\" source=\"s\" target=\"t\"/>\n"
      "  <cdc shards=\"2\" update_rate_per_s=\"-5\"/>\n"
      "</physical_design>\n";
  EXPECT_FALSE(ParseDesignXml(negative_rate).ok());
}

}  // namespace
}  // namespace qox
