#include "testing/generators.hpp"

#include <algorithm>
#include <set>

#include "model/mlp_model.hpp"
#include "model/ngram_model.hpp"
#include "util/errors.hpp"

namespace relm::testing {

using automata::ByteSet;
using automata::RegexKind;
using automata::RegexNode;
using automata::RegexPtr;
using tokenizer::TokenId;
using util::Pcg32;

namespace {

char pick_char(Pcg32& rng, const std::string& alphabet) {
  return alphabet[rng.bounded(static_cast<std::uint32_t>(alphabet.size()))];
}

RegexPtr gen_node(Pcg32& rng, const RegexGenConfig& config, int depth) {
  // Leaves: single char (5), small class (2), epsilon (1).
  // Internal (only when depth budget remains): concat (4), alternate (3),
  // repeat (2), then the boolean algebra — intersect / complement /
  // difference — at algebra_weight each (0 restores the pre-algebra
  // generator, draw-for-draw).
  const bool leaf_only = depth >= config.max_depth;
  double weights[9] = {5, 2, 1, 0, 0, 0, 0, 0, 0};
  if (!leaf_only) {
    weights[3] = 4;
    weights[4] = 3;
    weights[5] = 2;
    weights[6] = config.algebra_weight;
    weights[7] = config.algebra_weight;
    weights[8] = config.algebra_weight;
  }
  const std::size_t count = config.algebra_weight > 0 ? 9 : 6;
  const std::size_t bucket =
      rng.weighted(std::span<const double>(weights, count));
  switch (bucket) {
    case 0:
      return RegexNode::literal(
          static_cast<unsigned char>(pick_char(rng, config.alphabet)));
    case 1: {
      ByteSet set;
      std::size_t count = 2 + rng.bounded(2);  // 2 or 3 members
      for (std::size_t i = 0; i < count; ++i) {
        set.set(static_cast<unsigned char>(pick_char(rng, config.alphabet)));
      }
      return RegexNode::char_class_node(set);
    }
    case 2:
      return RegexNode::epsilon();
    case 3:
    case 4: {
      std::vector<RegexPtr> children;
      std::size_t count = 2 + rng.bounded(2);  // 2 or 3 children
      children.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        children.push_back(gen_node(rng, config, depth + 1));
      }
      // The factories collapse degenerate shapes (empty/singleton lists), so
      // the result is always structurally valid.
      return bucket == 3 ? RegexNode::concat(std::move(children))
                         : RegexNode::alternate(std::move(children));
    }
    case 5: {
      int min = static_cast<int>(rng.bounded(
          static_cast<std::uint32_t>(config.max_repeat) + 1));
      int max = rng.uniform() < config.unbounded_prob
                    ? automata::kUnbounded
                    : min + static_cast<int>(rng.bounded(
                          static_cast<std::uint32_t>(config.max_repeat) + 1));
      return RegexNode::repeat(gen_node(rng, config, depth + 1), min, max);
    }
    case 6: {
      std::vector<RegexPtr> children;
      children.push_back(gen_node(rng, config, depth + 1));
      children.push_back(gen_node(rng, config, depth + 1));
      return RegexNode::intersect(std::move(children));
    }
    case 7:
      return RegexNode::complement(gen_node(rng, config, depth + 1));
    default:
      return RegexNode::difference(gen_node(rng, config, depth + 1),
                                   gen_node(rng, config, depth + 1));
  }
}

}  // namespace

RegexPtr random_regex(Pcg32& rng, const RegexGenConfig& config) {
  // weighted() above mixes concat/alternate through one bucket pair; keep the
  // top-level draw unbiased by delegating straight to the recursive helper.
  return gen_node(rng, config, 0);
}

std::size_t node_count(const RegexNode& node) {
  std::size_t total = 1;
  for (const RegexPtr& child : node.children) total += node_count(*child);
  return total;
}

namespace {

bool plain_literal(unsigned char c) {
  // `!`, `&`, `~` left this set when they became boolean-algebra operators;
  // append_literal now emits them escaped, keeping pattern_of round-trippable.
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == ' ' || c == '_' || c == ',' ||
         c == ':' || c == ';' || c == '<' || c == '>' || c == '=' ||
         c == '@' || c == '"' || c == '\'' || c == '`';
}

void append_literal(std::string& out, unsigned char c) {
  if (plain_literal(c)) {
    out += static_cast<char>(c);
    return;
  }
  switch (c) {
    case '\n': out += "\\n"; return;
    case '\t': out += "\\t"; return;
    case '\r': out += "\\r"; return;
    case '\f': out += "\\f"; return;
    case '\v': out += "\\v"; return;
    case '\0': out += "\\0"; return;
  }
  if (c >= 0x20 && c < 0x7f) {
    out += '\\';
    out += static_cast<char>(c);
    return;
  }
  char buf[8];
  std::snprintf(buf, sizeof buf, "\\x%02x", c);
  out += buf;
}

void append_class_member(std::string& out, unsigned char c) {
  // Inside brackets only the class metacharacters need escaping; the parser
  // accepts the same escape forms as outside.
  if (c == '\\' || c == ']' || c == '^' || c == '-') {
    out += '\\';
    out += static_cast<char>(c);
    return;
  }
  if (c >= 0x20 && c < 0x7f) {
    out += static_cast<char>(c);
    return;
  }
  append_literal(out, c);
}

void render(const RegexNode& node, std::string& out) {
  auto render_grouped = [&](const RegexNode& child) {
    bool group = child.kind == RegexKind::kAlternate ||
                 child.kind == RegexKind::kConcat ||
                 child.kind == RegexKind::kRepeat ||
                 child.kind == RegexKind::kIntersect ||
                 child.kind == RegexKind::kComplement ||
                 child.kind == RegexKind::kDifference;
    if (group) out += '(';
    render(child, out);
    if (group) out += ')';
  };
  switch (node.kind) {
    case RegexKind::kEmptySet:
      throw relm::Error(
          "pattern_of: the empty-set regex has no dialect syntax");
    case RegexKind::kEpsilon:
      out += "()";
      return;
    case RegexKind::kCharClass: {
      if (node.char_class.count() == 1) {
        for (std::size_t b = 0; b < 256; ++b) {
          if (node.char_class.test(b)) {
            append_literal(out, static_cast<unsigned char>(b));
            return;
          }
        }
      }
      out += '[';
      for (std::size_t b = 0; b < 256; ++b) {
        if (node.char_class.test(b)) {
          append_class_member(out, static_cast<unsigned char>(b));
        }
      }
      out += ']';
      return;
    }
    case RegexKind::kConcat:
      for (const RegexPtr& child : node.children) {
        // Operators looser than concatenation need grouping; a complement
        // child does not (`a~b` already parses as a·(~b)).
        if (child->kind == RegexKind::kAlternate ||
            child->kind == RegexKind::kIntersect ||
            child->kind == RegexKind::kDifference) {
          out += '(';
          render(*child, out);
          out += ')';
        } else {
          render(*child, out);
        }
      }
      return;
    case RegexKind::kAlternate:
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i) out += '|';
        render(*node.children[i], out);
      }
      return;
    case RegexKind::kIntersect:
      // `&` binds tighter than `|` and `-`: group children of those kinds.
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i) out += '&';
        const RegexNode& child = *node.children[i];
        bool group = child.kind == RegexKind::kAlternate ||
                     child.kind == RegexKind::kDifference;
        if (group) out += '(';
        render(child, out);
        if (group) out += ')';
      }
      return;
    case RegexKind::kDifference: {
      // `-` is left-associative and looser than `&`: the left child only
      // needs grouping when it is an alternation; the right child also when
      // it is itself a difference (else `a-b-c` re-associates to the left).
      const RegexNode& left = *node.children[0];
      const RegexNode& right = *node.children[1];
      bool group_left = left.kind == RegexKind::kAlternate;
      bool group_right = right.kind == RegexKind::kAlternate ||
                         right.kind == RegexKind::kDifference;
      if (group_left) out += '(';
      render(left, out);
      if (group_left) out += ')';
      out += '-';
      if (group_right) out += '(';
      render(right, out);
      if (group_right) out += ')';
      return;
    }
    case RegexKind::kComplement: {
      // `~` binds to the following repeated atom, so a repeat, another
      // complement, or a leaf may follow bare; anything looser is grouped
      // (`~ab` would parse as (~a)·b).
      out += '~';
      const RegexNode& child = *node.children.front();
      bool group = child.kind == RegexKind::kConcat ||
                   child.kind == RegexKind::kAlternate ||
                   child.kind == RegexKind::kIntersect ||
                   child.kind == RegexKind::kDifference;
      if (group) out += '(';
      render(child, out);
      if (group) out += ')';
      return;
    }
    case RegexKind::kRepeat: {
      render_grouped(*node.children.front());
      int min = node.repeat_min;
      int max = node.repeat_max;
      if (min == 0 && max == automata::kUnbounded) {
        out += '*';
      } else if (min == 1 && max == automata::kUnbounded) {
        out += '+';
      } else if (min == 0 && max == 1) {
        out += '?';
      } else if (max == automata::kUnbounded) {
        out += '{' + std::to_string(min) + ",}";
      } else if (min == max) {
        out += '{' + std::to_string(min) + '}';
      } else {
        out += '{' + std::to_string(min) + ',' + std::to_string(max) + '}';
      }
      return;
    }
  }
}

}  // namespace

std::string pattern_of(const RegexNode& node) {
  std::string out;
  render(node, out);
  return out;
}

std::vector<std::string> random_vocab(Pcg32& rng, const VocabGenConfig& config) {
  std::vector<std::string> vocab;
  vocab.emplace_back();  // EOS — from_vocab requires exactly one "" entry
  std::set<std::string> seen;
  for (char c : config.alphabet) {
    std::string tok(1, c);
    if (seen.insert(tok).second) vocab.push_back(tok);
  }
  std::size_t merged = rng.bounded(
      static_cast<std::uint32_t>(config.max_merged) + 1);
  for (std::size_t i = 0; i < merged; ++i) {
    std::size_t len =
        2 + rng.bounded(static_cast<std::uint32_t>(config.max_token_len - 1));
    std::string tok;
    for (std::size_t j = 0; j < len; ++j) tok += pick_char(rng, config.alphabet);
    if (seen.insert(tok).second) vocab.push_back(tok);
  }
  return vocab;
}

std::shared_ptr<model::LanguageModel> ModelSpec::build() const {
  switch (kind) {
    case Kind::kUniform:
      return std::make_shared<model::UniformModel>(vocab_size, eos,
                                                   max_sequence_length);
    case Kind::kNgram: {
      model::NgramModel::Config config;
      config.order = ngram_order;
      config.alpha = ngram_alpha;
      config.max_sequence_length = max_sequence_length;
      return model::NgramModel::train_on_tokens(vocab_size, eos, sequences,
                                                config);
    }
    case Kind::kMlp: {
      model::MlpModel::Config config;
      config.context_size = mlp_context;
      config.embedding_dim = mlp_embedding;
      config.hidden_dim = mlp_hidden;
      config.epochs = mlp_epochs;
      config.seed = mlp_seed;
      config.max_sequence_length = max_sequence_length;
      return model::MlpModel::train_on_tokens(vocab_size, eos, sequences,
                                              config);
    }
  }
  throw relm::Error("ModelSpec: unknown kind");
}

Json ModelSpec::to_json() const {
  Json j = Json::object();
  switch (kind) {
    case Kind::kUniform: j.set("kind", Json::string("uniform")); break;
    case Kind::kNgram: j.set("kind", Json::string("ngram")); break;
    case Kind::kMlp: j.set("kind", Json::string("mlp")); break;
  }
  j.set("vocab_size", Json::number(static_cast<std::int64_t>(vocab_size)));
  j.set("eos", Json::number(static_cast<std::int64_t>(eos)));
  j.set("max_sequence_length",
        Json::number(static_cast<std::int64_t>(max_sequence_length)));
  if (kind == Kind::kNgram) {
    j.set("ngram_order", Json::number(static_cast<std::int64_t>(ngram_order)));
    j.set("ngram_alpha", Json::number(ngram_alpha));
  }
  if (kind == Kind::kMlp) {
    j.set("mlp_context", Json::number(static_cast<std::int64_t>(mlp_context)));
    j.set("mlp_embedding",
          Json::number(static_cast<std::int64_t>(mlp_embedding)));
    j.set("mlp_hidden", Json::number(static_cast<std::int64_t>(mlp_hidden)));
    j.set("mlp_epochs", Json::number(static_cast<std::int64_t>(mlp_epochs)));
    j.set("mlp_seed", Json::number(static_cast<std::int64_t>(mlp_seed)));
  }
  if (kind != Kind::kUniform) {
    Json seqs = Json::array();
    for (const std::vector<TokenId>& seq : sequences) {
      Json row = Json::array();
      for (TokenId t : seq) row.push_back(Json::number(static_cast<std::int64_t>(t)));
      seqs.push_back(std::move(row));
    }
    j.set("sequences", std::move(seqs));
  }
  return j;
}

ModelSpec ModelSpec::from_json(const Json& j) {
  ModelSpec spec;
  const std::string& kind = j.at("kind").as_string();
  if (kind == "uniform") {
    spec.kind = Kind::kUniform;
  } else if (kind == "ngram") {
    spec.kind = Kind::kNgram;
  } else if (kind == "mlp") {
    spec.kind = Kind::kMlp;
  } else {
    throw relm::Error("ModelSpec: unknown kind \"" + kind + "\"");
  }
  spec.vocab_size = static_cast<std::size_t>(j.at("vocab_size").as_int());
  spec.eos = static_cast<TokenId>(j.at("eos").as_int());
  spec.max_sequence_length =
      static_cast<std::size_t>(j.at("max_sequence_length").as_int());
  if (const Json* v = j.get("ngram_order")) {
    spec.ngram_order = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.get("ngram_alpha")) spec.ngram_alpha = v->as_double();
  if (const Json* v = j.get("mlp_context")) {
    spec.mlp_context = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.get("mlp_embedding")) {
    spec.mlp_embedding = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.get("mlp_hidden")) {
    spec.mlp_hidden = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.get("mlp_epochs")) {
    spec.mlp_epochs = static_cast<std::size_t>(v->as_int());
  }
  if (const Json* v = j.get("mlp_seed")) {
    spec.mlp_seed = static_cast<std::uint64_t>(v->as_int());
  }
  if (const Json* v = j.get("sequences")) {
    for (const Json& row : v->as_array()) {
      std::vector<TokenId> seq;
      for (const Json& t : row.as_array()) {
        seq.push_back(static_cast<TokenId>(t.as_int()));
      }
      spec.sequences.push_back(std::move(seq));
    }
  }
  return spec;
}

ModelSpec random_model_spec(Pcg32& rng, std::size_t vocab_size, TokenId eos) {
  ModelSpec spec;
  spec.vocab_size = vocab_size;
  spec.eos = eos;
  spec.max_sequence_length = 24;
  const double kind_weights[3] = {1, 4, 2};  // uniform / ngram / mlp
  switch (rng.weighted(kind_weights)) {
    case 0: spec.kind = ModelSpec::Kind::kUniform; break;
    case 1: spec.kind = ModelSpec::Kind::kNgram; break;
    default: spec.kind = ModelSpec::Kind::kMlp; break;
  }
  if (spec.kind == ModelSpec::Kind::kNgram) {
    spec.ngram_order = 2 + rng.bounded(2);           // 2 or 3
    spec.ngram_alpha = 0.1 + 0.6 * rng.uniform();
  }
  if (spec.kind == ModelSpec::Kind::kMlp) {
    spec.mlp_context = 2 + rng.bounded(2);           // 2 or 3
    spec.mlp_embedding = 4 + rng.bounded(5);         // 4..8
    spec.mlp_hidden = 8 + rng.bounded(9);            // 8..16
    spec.mlp_epochs = 1 + rng.bounded(2);            // 1 or 2
    spec.mlp_seed = rng.next();
  }
  if (spec.kind != ModelSpec::Kind::kUniform) {
    std::size_t docs = 2 + rng.bounded(4);           // 2..5
    for (std::size_t d = 0; d < docs; ++d) {
      std::size_t len = 1 + rng.bounded(8);          // 1..8 tokens
      std::vector<TokenId> seq;
      for (std::size_t i = 0; i < len; ++i) {
        TokenId t = static_cast<TokenId>(
            rng.bounded(static_cast<std::uint32_t>(vocab_size)));
        if (t == eos) t = (t + 1) % static_cast<TokenId>(vocab_size);
        seq.push_back(t);
      }
      spec.sequences.push_back(std::move(seq));
    }
  }
  return spec;
}

core::SimpleSearchQuery TrialCase::query() const {
  core::SimpleSearchQuery q;
  q.query_string.query_str = prefix + body;
  q.query_string.prefix_str = prefix;
  q.tokenization_strategy = all_tokens
                                ? core::TokenizationStrategy::kAllTokens
                                : core::TokenizationStrategy::kCanonicalTokens;
  if (top_k > 0) q.decoding.top_k = static_cast<int>(top_k);
  if (top_p < 1.0) q.decoding.top_p = top_p;
  q.decoding.temperature = temperature;
  q.sequence_length = sequence_length;
  q.require_eos = require_eos;
  q.num_samples = num_samples;
  q.expansion_batch_size = expansion_batch;
  q.canonical_enumeration_budget = canonical_enumeration_budget;
  return q;
}

Json TrialCase::to_json() const {
  Json j = Json::object();
  j.set("relm_fuzz_repro", Json::number(static_cast<std::int64_t>(1)));
  j.set("seed", Json::number(static_cast<std::int64_t>(seed)));
  Json v = Json::array();
  for (const std::string& tok : vocab) v.push_back(Json::string(tok));
  j.set("vocab", std::move(v));
  j.set("model", model.to_json());
  j.set("prefix", Json::string(prefix));
  j.set("body", Json::string(body));
  if (!body_b.empty()) j.set("body_b", Json::string(body_b));
  j.set("all_tokens", Json::boolean(all_tokens));
  j.set("require_eos", Json::boolean(require_eos));
  j.set("top_k", Json::number(static_cast<std::int64_t>(top_k)));
  j.set("top_p", Json::number(top_p));
  j.set("temperature", Json::number(temperature));
  j.set("sequence_length",
        Json::number(static_cast<std::int64_t>(sequence_length)));
  j.set("num_samples", Json::number(static_cast<std::int64_t>(num_samples)));
  j.set("expansion_batch",
        Json::number(static_cast<std::int64_t>(expansion_batch)));
  j.set("sampler_seed", Json::number(static_cast<std::int64_t>(sampler_seed)));
  j.set("canonical_enumeration_budget",
        Json::number(static_cast<std::int64_t>(canonical_enumeration_budget)));
  return j;
}

TrialCase TrialCase::from_json(const Json& j) {
  if (!j.has("relm_fuzz_repro") || j.at("relm_fuzz_repro").as_int() != 1) {
    throw relm::Error("not a relm fuzz repro file (schema key missing)");
  }
  TrialCase c;
  c.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  for (const Json& tok : j.at("vocab").as_array()) {
    c.vocab.push_back(tok.as_string());
  }
  c.model = ModelSpec::from_json(j.at("model"));
  c.prefix = j.at("prefix").as_string();
  c.body = j.at("body").as_string();
  // Optional: repro files written before the difference configuration
  // existed (and trials without one) simply omit it.
  if (const Json* v = j.get("body_b")) c.body_b = v->as_string();
  c.all_tokens = j.at("all_tokens").as_bool();
  c.require_eos = j.at("require_eos").as_bool();
  c.top_k = static_cast<std::size_t>(j.at("top_k").as_int());
  c.top_p = j.at("top_p").as_double();
  c.temperature = j.at("temperature").as_double();
  c.sequence_length =
      static_cast<std::size_t>(j.at("sequence_length").as_int());
  c.num_samples = static_cast<std::size_t>(j.at("num_samples").as_int());
  c.expansion_batch =
      static_cast<std::size_t>(j.at("expansion_batch").as_int());
  c.sampler_seed = static_cast<std::uint64_t>(j.at("sampler_seed").as_int());
  c.canonical_enumeration_budget = static_cast<std::size_t>(
      j.at("canonical_enumeration_budget").as_int());
  return c;
}

TrialCase generate_case(std::uint64_t seed, const GenConfig& config) {
  // Independent streams per component: regenerating (say) only the model
  // hyperparameters for a seed does not disturb the regex draw.
  Pcg32 rng_regex(seed, 0x52454758);  // "REGX"
  Pcg32 rng_vocab(seed, 0x564f4341);  // "VOCA"
  Pcg32 rng_model(seed, 0x4d4f4445);  // "MODE"
  Pcg32 rng_param(seed, 0x50415241);  // "PARA"
  Pcg32 rng_diffb(seed, 0x44494642);  // "DIFB"
  Pcg32 rng_rules(seed, 0x52554c45);  // "RULE"

  TrialCase c;
  c.seed = seed;
  c.vocab = random_vocab(rng_vocab, config.vocab);

  // from_vocab keeps list order, so EOS ("" at index 0) is token id 0.
  c.model = random_model_spec(rng_model, c.vocab.size(), /*eos=*/0);

  RegexPtr ast = random_regex(rng_regex, config.regex);
  c.body = pattern_of(*ast);
  // Operators looser than concatenation must stay grouped so prefix + body
  // concatenation (QueryString's textual-prefix contract) is unambiguous.
  if (ast->kind == RegexKind::kAlternate ||
      ast->kind == RegexKind::kIntersect ||
      ast->kind == RegexKind::kDifference) {
    c.body = "(" + c.body + ")";
  }
  if (rng_diffb.uniform() < config.difference_prob) {
    // The subtrahend stays shallow and boolean-free: Configuration G's
    // two-pass reference filters through its character DFA directly, and a
    // small B keeps the one-pass product automaton oracle-enumerable.
    RegexGenConfig b_config = config.regex;
    b_config.max_depth = 2;
    b_config.algebra_weight = 0;
    c.body_b = pattern_of(*random_regex(rng_diffb, b_config));
  }
  if (rng_param.uniform() < config.prefix_prob) {
    std::size_t len = 1 + rng_param.bounded(2);
    for (std::size_t i = 0; i < len; ++i) {
      c.prefix += pick_char(rng_param, config.regex.alphabet);
    }
  }

  c.all_tokens = rng_param.uniform() < config.all_tokens_prob;
  c.require_eos = rng_param.uniform() < config.require_eos_prob;
  if (rng_param.uniform() < config.decoding_prob) {
    if (rng_param.uniform() < 0.5) {
      c.top_k = 1 + rng_param.bounded(
          static_cast<std::uint32_t>(c.vocab.size()));
    } else {
      c.top_p = 0.5 + 0.45 * rng_param.uniform();
    }
    // A slice carries both rules, the combined mask of generation streams;
    // its own stream leaves every other draw of the seed unchanged.
    if (rng_rules.uniform() < 0.4) {
      if (c.top_k == 0) {
        c.top_k = 1 + rng_rules.bounded(
            static_cast<std::uint32_t>(c.vocab.size()));
      } else {
        c.top_p = 0.5 + 0.45 * rng_rules.uniform();
      }
    }
    if (rng_param.uniform() < 0.5) {
      c.temperature = 0.5 + 1.5 * rng_param.uniform();
    }
  }
  c.sequence_length = config.min_seq_len + rng_param.bounded(
      static_cast<std::uint32_t>(config.max_seq_len - config.min_seq_len) + 1);
  // Force the dynamic-canonicality path (§3.2 option 2) on a slice of the
  // canonical-tokenization cases; the enumeration path covers the rest.
  if (!c.all_tokens && rng_param.uniform() < 0.3) {
    c.canonical_enumeration_budget = 0;
  }
  c.sampler_seed = (seed * 0x9e3779b97f4a7c15ULL) ^ 0x5bf0363546e17aefULL;
  return c;
}

}  // namespace relm::testing
