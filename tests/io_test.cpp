// Serialization: edge-list round trips (including multiplicity and names),
// parser failure injection, differential parity of the edge-list reader
// with its istream reference (tests/edgelist_reference.hpp), JSON writer
// discipline, and validator rigor.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>

#include "edgelist_reference.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/io/edgelist.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/prng.hpp"

namespace graphio::io {
namespace {

bool same_graph(const Digraph& a, const Digraph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_edges() != b.num_edges()) return false;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    std::vector<VertexId> ca(a.children(v).begin(), a.children(v).end());
    std::vector<VertexId> cb(b.children(v).begin(), b.children(v).end());
    std::sort(ca.begin(), ca.end());
    std::sort(cb.begin(), cb.end());
    if (ca != cb) return false;
    if (a.name(v) != b.name(v)) return false;
  }
  return true;
}

TEST(Edgelist, RoundTripsBuilders) {
  for (const Digraph& g :
       {builders::fft(4), builders::naive_matmul(3),
        builders::bhk_hypercube(4), builders::inner_product(3)}) {
    EXPECT_TRUE(same_graph(g, from_edgelist_string(to_edgelist_string(g))));
  }
}

TEST(Edgelist, RoundTripsParallelEdgesAndNames) {
  Digraph g(3);
  g.add_edge(0, 2);
  g.add_edge(0, 2);  // x·x-style parallel edge
  g.add_edge(1, 2);
  g.set_name(0, "x");
  g.set_name(2, "x squared plus y");  // names may contain spaces
  const Digraph back = from_edgelist_string(to_edgelist_string(g));
  EXPECT_TRUE(same_graph(g, back));
  EXPECT_EQ(back.name(2), "x squared plus y");
}

TEST(Edgelist, RoundTripsRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const Digraph g = builders::erdos_renyi_dag(60, 0.08, seed);
    EXPECT_TRUE(same_graph(g, from_edgelist_string(to_edgelist_string(g))));
  }
}

TEST(Edgelist, EmptyGraphRoundTrips) {
  EXPECT_TRUE(
      same_graph(Digraph(0), from_edgelist_string(to_edgelist_string(Digraph(0)))));
}

TEST(Edgelist, CommentsAndBlankLinesAreIgnored) {
  const Digraph g = from_edgelist_string(
      "graphio-edgelist 1\n"
      "# a comment\n"
      "\n"
      "n 2   # trailing comment\n"
      "e 0 1\n");
  EXPECT_EQ(g.num_vertices(), 2);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Edgelist, RejectsMalformedDocuments) {
  EXPECT_THROW(from_edgelist_string(""), contract_error);
  EXPECT_THROW(from_edgelist_string("bogus 1\n"), contract_error);
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 2\nn 1\n"),
               contract_error);
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 1\ne 0 1\n"),
               contract_error);  // edge before n
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 1\nn 2\nn 2\n"),
               contract_error);  // duplicate n
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 1\nn 2\ne 0 5\n"),
               contract_error);  // id out of range
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 1\nn 2\ne 1 1\n"),
               contract_error);  // self loop
  EXPECT_THROW(from_edgelist_string("graphio-edgelist 1\nn 2\nq 0 1\n"),
               contract_error);  // unknown directive
}

TEST(Edgelist, ErrorsCarryLineNumbers) {
  try {
    (void)from_edgelist_string("graphio-edgelist 1\nn 2\ne 0 9\n");
    FAIL() << "expected throw";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Edgelist, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "graphio_edgelist_test.txt";
  const Digraph g = builders::fft(3);
  save_edgelist(path, g);
  EXPECT_TRUE(same_graph(g, load_edgelist(path)));
  std::filesystem::remove(path);
}

// --- Edge-list reader vs. its istream reference ------------------------------

/// What reading one document gave: the graph, or the error message.
struct Outcome {
  std::optional<Digraph> graph;
  std::string error;
};

template <class Read>
Outcome outcome_of(Read&& read) {
  try {
    return {read(), {}};
  } catch (const contract_error& e) {
    return {std::nullopt, e.what()};
  }
}

/// Identical graphs: equal adjacency in insertion order, equal names.
bool identical(const Digraph& a, const Digraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges())
    return false;
  for (VertexId v = 0; v < a.num_vertices(); ++v)
    if (!std::ranges::equal(a.children(v), b.children(v)) ||
        !std::ranges::equal(a.parents(v), b.parents(v)) ||
        a.name(v) != b.name(v))
      return false;
  return true;
}

/// Reads `text` with both readers and checks they agree: both accept with
/// identical graphs, or both reject with the same message. Returns the
/// production reader's outcome.
Outcome expect_reference_parity(const std::string& text) {
  const Outcome got = outcome_of([&] { return from_edgelist_string(text); });
  const Outcome want =
      outcome_of([&] { return reference::from_edgelist_string(text); });
  EXPECT_EQ(got.graph.has_value(), want.graph.has_value())
      << "document:\n" << text << "\ngot: " << got.error
      << "\nwant: " << want.error;
  EXPECT_EQ(got.error, want.error) << "document:\n" << text;
  if (got.graph && want.graph)
    EXPECT_TRUE(identical(*got.graph, *want.graph)) << "document:\n" << text;
  return got;
}

std::vector<Digraph> reference_graphs() {
  std::vector<Digraph> graphs = {
      builders::fft(4),           builders::naive_matmul(3),
      builders::strassen_matmul(2), builders::bhk_hypercube(4),
      builders::inner_product(3), builders::erdos_renyi_dag(60, 0.08, 7),
      builders::grid(3, 4),       builders::stencil2d(3, 3, 2),
      builders::binary_tree(3),   builders::cholesky(3),
      Digraph(0),                 Digraph(5)};
  Digraph named(4);
  named.add_edge(0, 3);
  named.add_edge(0, 3);
  named.add_edge(2, 1);
  named.set_name(0, "x squared");
  named.set_name(1, "tab\tinside");
  named.set_name(3, "a  b\t c");
  graphs.push_back(std::move(named));
  return graphs;
}

TEST(EdgelistReference, EveryBuilderRoundTripMatches) {
  for (const Digraph& g : reference_graphs()) {
    const Outcome got = expect_reference_parity(to_edgelist_string(g));
    ASSERT_TRUE(got.graph.has_value()) << got.error;
    EXPECT_TRUE(same_graph(*got.graph, g));
  }
}

TEST(EdgelistReference, LayoutQuirksMatch) {
  using namespace std::string_literals;
  const std::string head = "graphio-edgelist 1\n";
  const std::vector<std::string> accepted = {
      // CRLF line ends; the '\r' ends a name too.
      "graphio-edgelist 1\r\nn 3\r\nv 0 in put\r\ne 0 1\r\ne 1 2\r\n",
      // No final newline, comments, blank and whitespace-only lines.
      "# leading comment\n\n \t\n" + head + "n 2 # two\n\ne 0 1",
      head + "n 2\n#e 0 1\n   # indented\ne 0 1 # edge\n",
      // Signs, leading zeros, any whitespace between tokens.
      "graphio-edgelist +1\nn +3\ne +0 +2\ne 00 0001\n",
      "graphio-edgelist\t01\nn\v3\ne\f0\t\t2\r\n",
      // Trailing tokens and digits followed by garbage.
      head + "n 3 extra tokens\ne 0 1x\ne 1 2 3 4\ne 0x1 2\n",
      "graphio-edgelist 1.5\nn 2.9\ne 0 1.0\n",
      head + "n 3\nv 1x name\nv 2\nv 0 \t \nv 0  late  \n",
      // A CRLF line's blank name is the '\r' itself.
      head + "n 2\r\nv 1 \r\n",
      head + "n 0\n",
      head + "n -0\n"};
  for (const std::string& text : accepted) expect_reference_parity(text);

  const std::vector<std::string> rejected = {
      "", "\n\n# only comments\n", "bogus 1\n", "graphio-edgelist\n",
      "graphio-edgelist 2\n", "graphio-edgelist x1\n",
      "graphio-edgelist -0001\n",
      "graphio-edgelist 99999999999\n", "graphio-edgelist ++1\n",
      "graphio-edgelist +-1\n", "graphio-edgelist -+1\n",
      head + "n +-0\n", head + "n 2\ne +-0 1\n",
      "graphio-edgelist +\n", head, head + "# no n\n",
      head + "e 0 1\n", head + "v 0 a\n", head + "n 2\nn 2\n",
      head + "n 2\nn 3\n", head + "n\n", head + "n -1\n", head + "n x\n",
      head + "n 2\ne 0 2\n", head + "n 2\ne -1 0\n", head + "n 2\ne 0\n",
      head + "n 2\ne 0 +\n", head + "n 2\ne 0 - 1\n",
      head + "n 2\ne 1 1\n", head + "n 2\nv 2 far\n", head + "n 2\nv\n",
      head + "n 2\ne 0 99999999999999999999\n",
      head + "n 2\ne 0 -9223372036854775809\n",
      head + "n 2\ne 0 -9223372036854775808\n",
      head + "n 99999999999999999999\n", head + "n 2\nq 0 1\n",
      head + "n 2\ngraphio-edgelist 1\n", head + "n 2\nE 0 1\n",
      head + "n 2\ne0 1\n", head + "n 2\r\ne 0 1\r\ne 1 0x\r\ne 0 1 \r\n"
                                 "e 0 x\r\n",
      "graphio-edgelist 1\nn 2\ne\0 0 1\n"s};
  for (const std::string& text : rejected)
    EXPECT_FALSE(expect_reference_parity(text).graph.has_value()) << text;
}

TEST(EdgelistReference, ErrorMessagesCarryTheSameLineNumber) {
  const Outcome got = expect_reference_parity(
      "graphio-edgelist 1\r\n\r\n# c\r\nn 2\r\ne 0 1\r\ne 0 7\r\n");
  EXPECT_EQ(got.error, "edgelist parse error at line 6: bad edge endpoint");
  // The end-of-document errors name the last line, counted as getline
  // counts: a final line without '\n' counts, a trailing '\n' adds none.
  EXPECT_EQ(expect_reference_parity("graphio-edgelist 1\n\n\n").error,
            "edgelist parse error at line 3: missing n directive");
  EXPECT_EQ(expect_reference_parity("# a\n# b").error,
            "edgelist parse error at line 2: empty document (missing header)");
}

TEST(EdgelistReference, RandomByteEditsMatch) {
  // Seeded single-byte replacements, insertions and deletions, drawn
  // mostly from the bytes the grammar cares about, on small documents
  // (so an edited vertex count stays small).
  std::vector<std::string> bases;
  for (const Digraph& g :
       {builders::fft(2), builders::inner_product(2), builders::path(6),
        builders::erdos_renyi_dag(12, 0.3, 3)})
    bases.push_back(to_edgelist_string(g));
  bases.push_back(
      "# quirks\r\ngraphio-edgelist +1 trailing\r\nn 4\r\n"
      "v 0 a name\r\nv 3\tb\r\ne 0 1x\r\ne +1 2\ne 2 3 # c\n");
  const std::string alphabet = " \t\r\n\v\f#+-0123456789xenv.";
  Prng rng(20240611);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = bases[rng.below(bases.size())];
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.below(text.size() + 1);
      const char byte = rng.below(8) == 0
                            ? static_cast<char>(rng.below(256))
                            : alphabet[rng.below(alphabet.size())];
      switch (rng.below(3)) {
        case 0:
          if (at < text.size()) text[at] = byte;
          break;
        case 1: text.insert(at, 1, byte); break;
        default:
          if (at < text.size()) text.erase(at, 1);
      }
    }
    (expect_reference_parity(text).graph ? accepted : rejected) += 1;
    if (HasFailure()) break;
  }
  // The edits exercise both sides of the grammar.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

TEST(EdgelistReference, FilesAndStreamsReadTheSameBuffer) {
  const auto path =
      std::filesystem::temp_directory_path() / "graphio_edgelist_crlf.txt";
  const std::string crlf =
      "graphio-edgelist 1\r\nn 3\r\nv 2 out\r\ne 0 2\r\ne 1 2";
  {
    std::ofstream out(path, std::ios::binary);
    out << crlf;
  }
  const Digraph from_file = load_edgelist(path);
  std::filesystem::remove(path);
  std::istringstream stream(crlf);
  const Digraph from_stream = read_edgelist(stream);
  const Digraph want = reference::from_edgelist_string(crlf);
  EXPECT_TRUE(identical(from_file, want));
  EXPECT_TRUE(identical(from_stream, want));
  EXPECT_EQ(want.name(2), "out\r");
}

// --- JSON writer -----------------------------------------------------------

TEST(Json, WritesScalarsAndContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("graphio");
  w.key("n").value(std::int64_t{42});
  w.key("pi").value(3.25);
  w.key("ok").value(true);
  w.key("missing").null();
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.end_object();
  const std::string text = w.str();
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"n\":42"), std::string::npos);
  EXPECT_NE(text.find("\"xs\":[1,2]"), std::string::npos);
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  JsonWriter w;
  w.value("a\"b\\c\nd\te\x01");
  const std::string text = w.str();
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), contract_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_object();
    w.key("a");
    EXPECT_THROW(w.key("b"), contract_error);  // two keys in a row
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.end_object(), contract_error);  // mismatched close
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW((void)w.str(), contract_error);  // incomplete document
  }
}

TEST(Json, ValidatorAcceptsValidDocuments) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_TRUE(json_valid("[1,-2.5,3e8,\"x\",true,false,null]"));
  EXPECT_TRUE(json_valid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_TRUE(json_valid("  42  "));
}

TEST(Json, ValidatorRejectsInvalidDocuments) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("{\"a\"}"));
  EXPECT_FALSE(json_valid("{\"a\":1,}"));
  EXPECT_FALSE(json_valid("01"));
  EXPECT_FALSE(json_valid("1 2"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("nul"));
  EXPECT_FALSE(json_valid("[\"bad\\escape\"]"));
}

TEST(Json, GraphConversionIsValidAndComplete) {
  Digraph g = builders::inner_product(2);
  g.set_name(0, "x0");
  const std::string text = graph_to_json(g);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"n\":7"), std::string::npos);
  EXPECT_NE(text.find("\"names\""), std::string::npos);
}

TEST(Json, RoundTripsThroughValidatorForAllBuilders) {
  for (const Digraph& g :
       {builders::fft(3), builders::strassen_matmul(2),
        builders::bhk_hypercube(3), builders::grid(3, 4)}) {
    EXPECT_TRUE(json_valid(graph_to_json(g)));
  }
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(JsonValue::parse("  7  ").as_int(), 7);  // surrounding ws
}

TEST(JsonValue, ParsesContainersPreservingOrder) {
  const JsonValue v = JsonValue::parse(
      R"({"b": [1, 2.5, "x"], "a": {"nested": true}, "n": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members()[0].first, "b");
  EXPECT_EQ(v.members()[1].first, "a");
  const JsonValue& array = v.at("b");
  ASSERT_TRUE(array.is_array());
  ASSERT_EQ(array.size(), 3u);
  EXPECT_EQ(array.at(std::size_t{0}).as_int(), 1);
  EXPECT_DOUBLE_EQ(array.at(1).as_double(), 2.5);
  EXPECT_EQ(array.at(2).as_string(), "x");
  EXPECT_TRUE(v.at("a").at("nested").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_EQ(v.get("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), contract_error);
}

TEST(JsonValue, UnescapesStrings) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\n\tA")").as_string(),
            "a\"b\\c\n\tA");
}

TEST(JsonValue, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("fft:5");
  w.key("pi").value(3.141592653589793);
  w.key("big").value(std::int64_t{1} << 40);
  w.key("flags").begin_array().value(true).value(false).end_array();
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("name").as_string(), "fft:5");
  EXPECT_DOUBLE_EQ(v.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(v.at("big").as_int(), std::int64_t{1} << 40);
  EXPECT_TRUE(v.at("flags").at(std::size_t{0}).as_bool());
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), contract_error);
  EXPECT_THROW(JsonValue::parse("{"), contract_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), contract_error);
  EXPECT_THROW(JsonValue::parse("{\"a\"}"), contract_error);
  EXPECT_THROW(JsonValue::parse("1 2"), contract_error);
  EXPECT_THROW(JsonValue::parse("\"open"), contract_error);
  EXPECT_THROW(JsonValue::parse("tru"), contract_error);
}

// One grammar: numbers RFC 8259 forbids neither parse nor validate.
TEST(JsonValue, RejectsNonRfcNumbers) {
  for (const char* text :
       {"01", "-01", "1.", "1.e5", "{\"a\":01}", "[08]", "-", "+1", ".5",
        "1e", "1e+", "--1"}) {
    EXPECT_THROW(JsonValue::parse(text), contract_error) << text;
    EXPECT_FALSE(json_valid(text)) << text;
  }
  for (const char* text : {"0", "-0", "0.5", "-1.25e-3", "1E+2", "10"}) {
    EXPECT_NO_THROW(JsonValue::parse(text)) << text;
    EXPECT_TRUE(json_valid(text)) << text;
  }
}

// Everything the writer emits parses: 17-digit doubles down to the
// smallest subnormal, and null for non-finite values.
TEST(JsonValue, WriterOutputStaysValid) {
  JsonWriter w;
  w.begin_array();
  for (double v : {0.1, -1.0 / 3.0, 4.9406564584124654e-324,
                   1.7976931348623157e308, 1e-300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()})
    w.value(v);
  w.end_array();
  ASSERT_TRUE(json_valid(w.str())) << w.str();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_DOUBLE_EQ(v.at(std::size_t{2}).as_double(), 4.9406564584124654e-324);
  EXPECT_TRUE(v.at(std::size_t{5}).is_null());
}

TEST(JsonValue, TypeMismatchesThrow) {
  const JsonValue v = JsonValue::parse(R"({"a": 1.5})");
  EXPECT_THROW((void)v.at("a").as_string(), contract_error);
  EXPECT_THROW((void)v.at("a").as_int(), contract_error);  // non-integral
  // Out-of-int64-range numbers must reject, not overflow (UB).
  EXPECT_THROW((void)JsonValue::parse("1e300").as_int(), contract_error);
  EXPECT_THROW((void)JsonValue::parse("-1e300").as_int(), contract_error);
  EXPECT_THROW((void)v.at("a").items(), contract_error);
  EXPECT_THROW((void)v.as_double(), contract_error);
  EXPECT_THROW((void)v.at(std::size_t{0}), contract_error);  // object, not array
}

}  // namespace
}  // namespace graphio::io
