#include "core/plan_io.h"

#include <cctype>
#include <charconv>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "core/cost_model.h"
#include "engine/plan.h"

namespace qox {

bool PlanStageSpec::operator==(const PlanStageSpec& other) const {
  return id == other.id && kind == other.kind && label == other.label &&
         begin == other.begin && end == other.end &&
         partition == other.partition && section == other.section;
}

bool PlanEdgeSpec::operator==(const PlanEdgeSpec& other) const {
  return from == other.from && to == other.to;
}

bool OpSpec::operator==(const OpSpec& other) const {
  return name == other.name && kind == other.kind &&
         blocking == other.blocking &&
         cost_per_row == other.cost_per_row &&
         selectivity == other.selectivity && reads == other.reads &&
         creates == other.creates && drops == other.drops &&
         error_policy == other.error_policy;
}

bool DesignSpec::operator==(const DesignSpec& other) const {
  return flow_id == other.flow_id && source == other.source &&
         target == other.target && ops == other.ops &&
         threads == other.threads && partitions == other.partitions &&
         partition_scheme == other.partition_scheme &&
         hash_column == other.hash_column &&
         range_begin == other.range_begin && range_end == other.range_end &&
         recovery_points == other.recovery_points &&
         redundancy == other.redundancy &&
         loads_per_day == other.loads_per_day &&
         provenance_columns == other.provenance_columns &&
         audit_rejects == other.audit_rejects &&
         streaming == other.streaming &&
         error_budget_max_rows == other.error_budget_max_rows &&
         error_budget_max_fraction == other.error_budget_max_fraction &&
         journaled == other.journaled &&
         journal_sync == other.journal_sync &&
         memory_budget_bytes == other.memory_budget_bytes &&
         resource_policy == other.resource_policy &&
         sla_deadline_s == other.sla_deadline_s &&
         cdc_shards == other.cdc_shards &&
         cdc_slice_events == other.cdc_slice_events &&
         cdc_update_rate_per_s == other.cdc_update_rate_per_s &&
         plan_stages == other.plan_stages && plan_edges == other.plan_edges;
}

DesignSpec SpecOf(const PhysicalDesign& design) {
  DesignSpec spec;
  spec.flow_id = design.flow.id();
  spec.source =
      design.flow.source() != nullptr ? design.flow.source()->name() : "";
  spec.target =
      design.flow.target() != nullptr ? design.flow.target()->name() : "";
  size_t op_index = 0;
  for (const LogicalOp& op : design.flow.ops()) {
    OpSpec op_spec;
    op_spec.error_policy =
        ErrorPolicyName(op_index < design.error_policies.size()
                            ? design.error_policies[op_index]
                            : ErrorPolicy::kFailFast);
    ++op_index;
    op_spec.name = op.name;
    op_spec.kind = op.kind;
    op_spec.blocking = op.blocking;
    op_spec.cost_per_row = op.cost_per_row;
    op_spec.selectivity = op.selectivity;
    op_spec.reads = op.reads;
    op_spec.creates = op.creates;
    op_spec.drops = op.drops;
    spec.ops.push_back(std::move(op_spec));
  }
  spec.threads = design.threads;
  spec.partitions = design.parallel.partitions;
  spec.partition_scheme =
      design.parallel.scheme == PartitionScheme::kHash ? "hash"
                                                       : "round_robin";
  spec.hash_column = design.parallel.hash_column;
  spec.range_begin = design.parallel.range_begin;
  spec.range_end = design.parallel.range_end;
  spec.recovery_points = design.recovery_points;
  spec.redundancy = design.redundancy;
  spec.loads_per_day = design.loads_per_day;
  spec.provenance_columns = design.provenance_columns;
  spec.audit_rejects = design.audit_rejects;
  spec.streaming = design.streaming;
  spec.error_budget_max_rows = design.error_budget.max_rows;
  spec.error_budget_max_fraction = design.error_budget.max_fraction;
  spec.journaled = design.journaled;
  spec.journal_sync = JournalSyncName(design.journal_sync);
  spec.memory_budget_bytes = design.memory_budget_bytes;
  spec.resource_policy = ResourcePolicyName(design.resource_policy);
  spec.sla_deadline_s = design.sla_deadline_s;
  spec.cdc_shards = design.cdc_shards;
  spec.cdc_slice_events = design.cdc_slice_events;
  spec.cdc_update_rate_per_s = design.cdc_update_rate_per_s;
  // The lowered stage graph rides along as descriptive metadata. PlanFor
  // is the same lowering the executors schedule, so the exported plan is
  // exactly what would run.
  const ExecutionPlan plan = CostModel::PlanFor(design);
  for (const PlanNode& node : plan.nodes()) {
    PlanStageSpec stage;
    stage.id = node.id;
    stage.kind = PlanNodeKindName(node.kind);
    stage.label = node.label;
    stage.begin = node.begin;
    stage.end = node.end;
    stage.partition = node.partition;
    stage.section = node.section;
    spec.plan_stages.push_back(std::move(stage));
  }
  for (const PlanEdge& edge : plan.edges()) {
    PlanEdgeSpec edge_spec;
    edge_spec.from = edge.from;
    edge_spec.to = edge.to;
    spec.plan_edges.push_back(edge_spec);
  }
  return spec;
}

namespace {

std::string XmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> XmlUnescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out += text[i];
      continue;
    }
    const size_t end = text.find(';', i);
    if (end == std::string::npos) {
      return Status::Invalid("unterminated XML entity");
    }
    const std::string entity = text.substr(i + 1, end - i - 1);
    if (entity == "amp") out += '&';
    else if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "quot") out += '"';
    else if (entity == "apos") out += '\'';
    else return Status::Invalid("unknown XML entity '&" + entity + ";'");
    i = end;
  }
  return out;
}

std::string ColumnList(const std::vector<std::string>& columns) {
  return Join(columns, ",");
}

std::vector<std::string> ParseColumnList(const std::string& text) {
  if (text.empty()) return {};
  return Split(text, ',');
}

// ---------------------------------------------------------------------------
// A minimal XML reader sufficient for the documents this module emits:
// elements with attributes, nesting, self-closing tags; no text nodes,
// comments or processing instructions beyond the leading declaration.
// ---------------------------------------------------------------------------

struct XmlNode {
  std::string tag;
  std::map<std::string, std::string> attributes;
  std::vector<XmlNode> children;

  const XmlNode* FirstChild(const std::string& name) const {
    for (const XmlNode& child : children) {
      if (child.tag == name) return &child;
    }
    return nullptr;
  }
};

class XmlParser {
 public:
  explicit XmlParser(const std::string& text) : text_(text) {}

  Result<XmlNode> Parse() {
    SkipWhitespaceAndDeclarations();
    QOX_ASSIGN_OR_RETURN(XmlNode root, ParseElement());
    SkipWhitespaceAndDeclarations();
    if (pos_ != text_.size()) {
      return Status::Invalid("trailing content after the root element");
    }
    return root;
  }

 private:
  void SkipWhitespaceAndDeclarations() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_.compare(pos_, 2, "<?") == 0) {
        const size_t end = text_.find("?>", pos_);
        pos_ = end == std::string::npos ? text_.size() : end + 2;
      } else if (text_.compare(pos_, 4, "<!--") == 0) {
        const size_t end = text_.find("-->", pos_);
        pos_ = end == std::string::npos ? text_.size() : end + 3;
      } else {
        return;
      }
    }
  }

  Result<XmlNode> ParseElement() {
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Status::Invalid("expected '<' at position " +
                             std::to_string(pos_));
    }
    ++pos_;
    XmlNode node;
    QOX_ASSIGN_OR_RETURN(node.tag, ParseName());
    while (true) {
      SkipSpaces();
      if (pos_ >= text_.size()) {
        return Status::Invalid("unterminated element <" + node.tag + ">");
      }
      if (text_[pos_] == '/') {
        if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '>') {
          return Status::Invalid("malformed self-closing tag");
        }
        pos_ += 2;
        return node;
      }
      if (text_[pos_] == '>') {
        ++pos_;
        break;
      }
      QOX_ASSIGN_OR_RETURN(const auto attribute, ParseAttribute());
      node.attributes[attribute.first] = attribute.second;
    }
    // Children until the closing tag.
    while (true) {
      SkipWhitespaceAndDeclarations();
      if (text_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        QOX_ASSIGN_OR_RETURN(const std::string closing, ParseName());
        SkipSpaces();
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Status::Invalid("malformed closing tag </" + closing + ">");
        }
        ++pos_;
        if (closing != node.tag) {
          return Status::Invalid("mismatched closing tag </" + closing +
                                 "> for <" + node.tag + ">");
        }
        return node;
      }
      QOX_ASSIGN_OR_RETURN(XmlNode child, ParseElement());
      node.children.push_back(std::move(child));
    }
  }

  Result<std::string> ParseName() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Status::Invalid("expected an XML name");
    return text_.substr(start, pos_ - start);
  }

  Result<std::pair<std::string, std::string>> ParseAttribute() {
    QOX_ASSIGN_OR_RETURN(const std::string name, ParseName());
    SkipSpaces();
    if (pos_ >= text_.size() || text_[pos_] != '=') {
      return Status::Invalid("attribute '" + name + "' missing '='");
    }
    ++pos_;
    SkipSpaces();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::Invalid("attribute '" + name + "' missing quote");
    }
    ++pos_;
    const size_t end = text_.find('"', pos_);
    if (end == std::string::npos) {
      return Status::Invalid("unterminated attribute value for '" + name +
                             "'");
    }
    QOX_ASSIGN_OR_RETURN(const std::string value,
                         XmlUnescape(text_.substr(pos_, end - pos_)));
    pos_ = end + 1;
    return std::make_pair(name, value);
  }

  void SkipSpaces() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<std::string> RequiredAttribute(const XmlNode& node,
                                      const std::string& name) {
  const auto it = node.attributes.find(name);
  if (it == node.attributes.end()) {
    return Status::Invalid("<" + node.tag + "> missing attribute '" + name +
                           "'");
  }
  return it->second;
}

std::string AttributeOr(const XmlNode& node, const std::string& name,
                        const std::string& fallback) {
  const auto it = node.attributes.find(name);
  return it == node.attributes.end() ? fallback : it->second;
}

/// A boolean attribute: "0", "1", or absent (false). Any other value is
/// refused rather than read as false.
Result<bool> BoolAttribute(const XmlNode& node, const std::string& name) {
  const std::string value = AttributeOr(node, name, "0");
  if (value == "0" || value == "1") return value == "1";
  return Status::Invalid("<" + node.tag + "> attribute '" + name +
                         "' must be 0 or 1, got '" + value + "'");
}

Result<size_t> ParseSize(const std::string& text) {
  QOX_ASSIGN_OR_RETURN(const Value v, Value::Parse(text, DataType::kInt64));
  if (v.is_null() || v.int64_value() < 0) {
    return Status::Invalid("expected a non-negative integer, got '" + text +
                           "'");
  }
  return static_cast<size_t>(v.int64_value());
}

/// A double in its shortest form that parses back to the same value, so a
/// document re-parses to the spec it was written from.
std::string ExactDouble(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

Result<double> ParseDouble(const std::string& text) {
  QOX_ASSIGN_OR_RETURN(const Value v, Value::Parse(text, DataType::kDouble));
  if (v.is_null()) return Status::Invalid("expected a number");
  return v.double_value();
}

}  // namespace

std::string ExportDesignXml(const DesignSpec& spec) {
  std::ostringstream oss;
  oss << "<?xml version=\"1.0\"?>\n";
  oss << "<physical_design threads=\"" << spec.threads << "\" redundancy=\""
      << spec.redundancy << "\" loads_per_day=\"" << spec.loads_per_day
      << "\" provenance_columns=\"" << (spec.provenance_columns ? 1 : 0)
      << "\" audit_rejects=\"" << (spec.audit_rejects ? 1 : 0)
      << "\" streaming=\"" << (spec.streaming ? 1 : 0) << "\"";
  // The budget attributes appear only when a budget is actually set, so
  // documents from designs that never touch containment stay byte-stable.
  if (spec.error_budget_max_rows != static_cast<size_t>(-1)) {
    oss << " error_budget_max_rows=\"" << spec.error_budget_max_rows << "\"";
  }
  if (spec.error_budget_max_fraction < 1.0) {
    oss << " error_budget_max_fraction=\""
        << ExactDouble(spec.error_budget_max_fraction) << "\"";
  }
  // Journal attributes appear only for journaled designs (same
  // byte-stability contract as the budget attributes above).
  if (spec.journaled) {
    oss << " journaled=\"1\" journal_sync=\"" << spec.journal_sync << "\"";
  }
  // Resource-pressure attributes appear only for budgeted designs (same
  // byte-stability contract again).
  if (spec.memory_budget_bytes > 0) {
    oss << " memory_budget_bytes=\"" << spec.memory_budget_bytes
        << "\" resource_policy=\"" << XmlEscape(spec.resource_policy) << "\"";
  }
  // The SLA attribute appears only for deadline-carrying flows, so
  // pre-service documents stay byte-stable.
  if (spec.sla_deadline_s > 0.0) {
    oss << " sla_deadline_s=\"" << ExactDouble(spec.sla_deadline_s) << "\"";
  }
  oss << ">\n";
  oss << "  <flow id=\"" << XmlEscape(spec.flow_id) << "\" source=\""
      << XmlEscape(spec.source) << "\" target=\"" << XmlEscape(spec.target)
      << "\">\n";
  for (const OpSpec& op : spec.ops) {
    oss << "    <operator name=\"" << XmlEscape(op.name) << "\" kind=\""
        << XmlEscape(op.kind) << "\" blocking=\"" << (op.blocking ? 1 : 0)
        << "\" cost_per_row=\"" << ExactDouble(op.cost_per_row)
        << "\" selectivity=\"" << ExactDouble(op.selectivity)
        << "\" reads=\"" << XmlEscape(ColumnList(op.reads))
        << "\" creates=\"" << XmlEscape(ColumnList(op.creates))
        << "\" drops=\"" << XmlEscape(ColumnList(op.drops)) << "\"";
    if (op.error_policy != "fail_fast") {
      oss << " error_policy=\"" << XmlEscape(op.error_policy) << "\"";
    }
    oss << "/>\n";
  }
  oss << "  </flow>\n";
  oss << "  <parallel partitions=\"" << spec.partitions << "\" scheme=\""
      << spec.partition_scheme << "\" hash_column=\""
      << XmlEscape(spec.hash_column) << "\" range_begin=\""
      << spec.range_begin << "\" range_end=\""
      << (spec.range_end == static_cast<size_t>(-1)
              ? std::string("max")
              : std::to_string(spec.range_end))
      << "\"/>\n";
  oss << "  <recovery_points>\n";
  for (const size_t cut : spec.recovery_points) {
    oss << "    <cut position=\"" << cut << "\"/>\n";
  }
  oss << "  </recovery_points>\n";
  // Optional sharded-CDC ingestion shape. Absent for non-CDC designs, so
  // documents that predate CDC mode are unchanged.
  if (spec.cdc_shards > 0) {
    oss << "  <cdc shards=\"" << spec.cdc_shards << "\" slice_events=\""
        << spec.cdc_slice_events << "\" update_rate_per_s=\""
        << ExactDouble(spec.cdc_update_rate_per_s) << "\"/>\n";
  }
  if (!spec.plan_stages.empty() || !spec.plan_edges.empty()) {
    oss << "  <execution_plan>\n";
    for (const PlanStageSpec& stage : spec.plan_stages) {
      oss << "    <stage id=\"" << stage.id << "\" kind=\""
          << XmlEscape(stage.kind) << "\" label=\"" << XmlEscape(stage.label)
          << "\" begin=\"" << stage.begin << "\" end=\"" << stage.end
          << "\" partition=\"" << stage.partition << "\" section=\""
          << (stage.section == static_cast<size_t>(-1)
                  ? std::string("none")
                  : std::to_string(stage.section))
          << "\"/>\n";
    }
    for (const PlanEdgeSpec& edge : spec.plan_edges) {
      oss << "    <edge from=\"" << edge.from << "\" to=\"" << edge.to
          << "\"/>\n";
    }
    oss << "  </execution_plan>\n";
  }
  oss << "</physical_design>\n";
  return oss.str();
}

std::string ExportDesignXml(const PhysicalDesign& design) {
  return ExportDesignXml(SpecOf(design));
}

Result<DesignSpec> ParseDesignXml(const std::string& xml) {
  XmlParser parser(xml);
  QOX_ASSIGN_OR_RETURN(const XmlNode root, parser.Parse());
  if (root.tag != "physical_design") {
    return Status::Invalid("root element must be <physical_design>, got <" +
                           root.tag + ">");
  }
  DesignSpec spec;
  QOX_ASSIGN_OR_RETURN(spec.threads,
                       ParseSize(AttributeOr(root, "threads", "1")));
  QOX_ASSIGN_OR_RETURN(spec.redundancy,
                       ParseSize(AttributeOr(root, "redundancy", "1")));
  QOX_ASSIGN_OR_RETURN(spec.loads_per_day,
                       ParseSize(AttributeOr(root, "loads_per_day", "24")));
  QOX_ASSIGN_OR_RETURN(spec.provenance_columns,
                       BoolAttribute(root, "provenance_columns"));
  QOX_ASSIGN_OR_RETURN(spec.audit_rejects,
                       BoolAttribute(root, "audit_rejects"));
  QOX_ASSIGN_OR_RETURN(spec.streaming, BoolAttribute(root, "streaming"));
  const std::string budget_rows =
      AttributeOr(root, "error_budget_max_rows", "max");
  if (budget_rows == "max") {
    spec.error_budget_max_rows = static_cast<size_t>(-1);
  } else {
    QOX_ASSIGN_OR_RETURN(spec.error_budget_max_rows, ParseSize(budget_rows));
  }
  QOX_ASSIGN_OR_RETURN(
      spec.error_budget_max_fraction,
      ParseDouble(AttributeOr(root, "error_budget_max_fraction", "1")));
  // The journal sync and the resource policy count only beside their gate
  // (journaled, a memory budget), as the export writes them, so a parsed
  // spec re-exports to itself. Their names are validated at parse time.
  QOX_ASSIGN_OR_RETURN(spec.journaled, BoolAttribute(root, "journaled"));
  if (spec.journaled) {
    spec.journal_sync = AttributeOr(root, "journal_sync", "always");
    QOX_RETURN_IF_ERROR(ParseJournalSync(spec.journal_sync).status());
  }
  QOX_ASSIGN_OR_RETURN(
      spec.memory_budget_bytes,
      ParseSize(AttributeOr(root, "memory_budget_bytes", "0")));
  if (spec.memory_budget_bytes > 0) {
    spec.resource_policy = AttributeOr(root, "resource_policy", "fail_flow");
    QOX_RETURN_IF_ERROR(ParseResourcePolicy(spec.resource_policy).status());
  }
  // Schema evolution: documents written before the SLA attribute simply
  // lack it and fall back to the default.
  QOX_ASSIGN_OR_RETURN(spec.sla_deadline_s,
                       ParseDouble(AttributeOr(root, "sla_deadline_s", "0")));
  if (spec.sla_deadline_s < 0.0) {
    return Status::Invalid("sla_deadline_s must be >= 0");
  }
  if (spec.error_budget_max_fraction < 0.0 ||
      spec.error_budget_max_fraction > 1.0) {
    return Status::Invalid("error_budget_max_fraction must lie in [0, 1]");
  }

  const XmlNode* flow = root.FirstChild("flow");
  if (flow == nullptr) return Status::Invalid("missing <flow> element");
  QOX_ASSIGN_OR_RETURN(spec.flow_id, RequiredAttribute(*flow, "id"));
  spec.source = AttributeOr(*flow, "source", "");
  spec.target = AttributeOr(*flow, "target", "");
  for (const XmlNode& child : flow->children) {
    if (child.tag != "operator") continue;
    OpSpec op;
    QOX_ASSIGN_OR_RETURN(op.name, RequiredAttribute(child, "name"));
    QOX_ASSIGN_OR_RETURN(op.kind, RequiredAttribute(child, "kind"));
    QOX_ASSIGN_OR_RETURN(op.blocking, BoolAttribute(child, "blocking"));
    QOX_ASSIGN_OR_RETURN(
        op.cost_per_row,
        ParseDouble(AttributeOr(child, "cost_per_row", "1")));
    QOX_ASSIGN_OR_RETURN(op.selectivity,
                         ParseDouble(AttributeOr(child, "selectivity", "1")));
    op.reads = ParseColumnList(AttributeOr(child, "reads", ""));
    op.creates = ParseColumnList(AttributeOr(child, "creates", ""));
    op.drops = ParseColumnList(AttributeOr(child, "drops", ""));
    op.error_policy = AttributeOr(child, "error_policy", "fail_fast");
    // Policies are closed vocabulary; reject documents from the future.
    QOX_RETURN_IF_ERROR(ParseErrorPolicy(op.error_policy).status());
    spec.ops.push_back(std::move(op));
  }

  if (const XmlNode* parallel = root.FirstChild("parallel")) {
    QOX_ASSIGN_OR_RETURN(spec.partitions,
                         ParseSize(AttributeOr(*parallel, "partitions", "1")));
    spec.partition_scheme =
        AttributeOr(*parallel, "scheme", "round_robin");
    if (spec.partition_scheme != "round_robin" &&
        spec.partition_scheme != "hash") {
      return Status::Invalid("unknown partition scheme '" +
                             spec.partition_scheme + "'");
    }
    spec.hash_column = AttributeOr(*parallel, "hash_column", "");
    QOX_ASSIGN_OR_RETURN(
        spec.range_begin,
        ParseSize(AttributeOr(*parallel, "range_begin", "0")));
    const std::string range_end = AttributeOr(*parallel, "range_end", "max");
    if (range_end == "max") {
      spec.range_end = static_cast<size_t>(-1);
    } else {
      QOX_ASSIGN_OR_RETURN(spec.range_end, ParseSize(range_end));
    }
  }
  if (const XmlNode* rps = root.FirstChild("recovery_points")) {
    for (const XmlNode& child : rps->children) {
      if (child.tag != "cut") continue;
      QOX_ASSIGN_OR_RETURN(const std::string position,
                           RequiredAttribute(child, "position"));
      QOX_ASSIGN_OR_RETURN(const size_t cut, ParseSize(position));
      spec.recovery_points.push_back(cut);
    }
  }
  if (const XmlNode* cdc = root.FirstChild("cdc")) {
    QOX_ASSIGN_OR_RETURN(const std::string shards,
                         RequiredAttribute(*cdc, "shards"));
    QOX_ASSIGN_OR_RETURN(spec.cdc_shards, ParseSize(shards));
    if (spec.cdc_shards == 0) {
      return Status::Invalid("<cdc> shards must be >= 1");
    }
    QOX_ASSIGN_OR_RETURN(
        spec.cdc_slice_events,
        ParseSize(AttributeOr(*cdc, "slice_events", "64")));
    if (spec.cdc_slice_events == 0) {
      return Status::Invalid("<cdc> slice_events must be >= 1");
    }
    QOX_ASSIGN_OR_RETURN(
        spec.cdc_update_rate_per_s,
        ParseDouble(AttributeOr(*cdc, "update_rate_per_s", "0")));
    if (spec.cdc_update_rate_per_s < 0.0) {
      return Status::Invalid("<cdc> update_rate_per_s must be >= 0");
    }
  }
  if (const XmlNode* plan = root.FirstChild("execution_plan")) {
    for (const XmlNode& child : plan->children) {
      if (child.tag == "stage") {
        PlanStageSpec stage;
        QOX_ASSIGN_OR_RETURN(const std::string id,
                             RequiredAttribute(child, "id"));
        QOX_ASSIGN_OR_RETURN(stage.id, ParseSize(id));
        QOX_ASSIGN_OR_RETURN(stage.kind, RequiredAttribute(child, "kind"));
        // Kinds are closed vocabulary; reject documents from the future.
        QOX_RETURN_IF_ERROR(ParsePlanNodeKind(stage.kind).status());
        stage.label = AttributeOr(child, "label", "");
        QOX_ASSIGN_OR_RETURN(stage.begin,
                             ParseSize(AttributeOr(child, "begin", "0")));
        QOX_ASSIGN_OR_RETURN(stage.end,
                             ParseSize(AttributeOr(child, "end", "0")));
        QOX_ASSIGN_OR_RETURN(stage.partition,
                             ParseSize(AttributeOr(child, "partition", "0")));
        const std::string section = AttributeOr(child, "section", "none");
        if (section == "none") {
          stage.section = static_cast<size_t>(-1);
        } else {
          QOX_ASSIGN_OR_RETURN(stage.section, ParseSize(section));
        }
        spec.plan_stages.push_back(std::move(stage));
      } else if (child.tag == "edge") {
        PlanEdgeSpec edge;
        QOX_ASSIGN_OR_RETURN(const std::string from,
                             RequiredAttribute(child, "from"));
        QOX_ASSIGN_OR_RETURN(edge.from, ParseSize(from));
        QOX_ASSIGN_OR_RETURN(const std::string to,
                             RequiredAttribute(child, "to"));
        QOX_ASSIGN_OR_RETURN(edge.to, ParseSize(to));
        spec.plan_edges.push_back(edge);
      }
    }
  }
  return spec;
}

}  // namespace qox
