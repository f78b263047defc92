// Node — one instruction of the paper's 6-opcode IR (Section 4.2 and
// Appendix A). Nodes live in a Graph's insertion-ordered list; data
// dependencies are Node references inside args/kwargs.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/argument.h"
#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace fxcpp::fx {

class Graph;

// Exactly the paper's opcode set (Appendix A.1).
enum class Opcode : std::uint8_t {
  Placeholder,   // function input
  CallFunction,  // call free function named by target
  CallMethod,    // call method `target` on args[0]
  CallModule,    // call sub-Module at qualified path `target`
  GetAttr,       // fetch parameter/buffer at qualified path `target`
  Output,        // return args[0]
};

const char* opcode_name(Opcode op);

// Pass-attached metadata (shape propagation, FLOPs estimates, quantization
// observers, partition ids, ...). Node.meta in torch.fx.
using MetaValue = std::variant<std::monostate, std::int64_t, double, bool,
                               std::string, Shape, DType>;

class Node {
 public:
  Opcode op() const { return op_; }
  const std::string& name() const { return name_; }
  // Raw rename, mirroring torch.fx's assignable `node.name`. Does not go
  // through Graph::unique_name — a colliding name is flagged by lint /
  // structure.duplicate-name rather than silently rewritten.
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& target() const { return target_; }

  const std::vector<Argument>& args() const { return args_; }
  const Kwargs& kwargs() const { return kwargs_; }
  Argument kwarg(const std::string& key) const;  // None if absent

  // Rewire inputs (maintains use-def chains via the owning graph).
  void set_args(std::vector<Argument> args);
  void set_kwargs(Kwargs kwargs);
  void set_target(std::string target) { target_ = std::move(target); }

  // Nodes whose args reference this node.
  const std::set<Node*>& users() const { return users_; }
  // Distinct nodes referenced by this node's args/kwargs, in arg order.
  std::vector<Node*> input_nodes() const;

  // Rewrite all users of this node to reference `replacement` instead.
  // Returns the number of users rewritten.
  int replace_all_uses_with(Node* replacement);

  Graph& graph() const { return *graph_; }

  // --- metadata ---------------------------------------------------------
  bool has_meta(const std::string& key) const { return meta_.count(key) != 0; }
  const MetaValue& meta(const std::string& key) const;
  void set_meta(const std::string& key, MetaValue v) { meta_[std::move(key)] = std::move(v); }
  void clear_meta(const std::string& key) { meta_.erase(key); }
  const std::map<std::string, MetaValue>& all_meta() const { return meta_; }

  // Shape/dtype shorthand over meta (set by passes::ShapeProp or
  // passes::infer_meta).
  bool has_shape() const { return has_meta("shape"); }
  const Shape& shape() const { return std::get<Shape>(meta("shape")); }
  DType dtype() const { return std::get<DType>(meta("dtype")); }
  // Transforms call this on nodes they rewrite so stale shape/dtype meta
  // never outlives the values it described (flagged by analysis rule
  // "meta.stale" otherwise).
  void invalidate_shape_meta() {
    meta_.erase("shape");
    meta_.erase("dtype");
  }

  // One line in the Figure-1 style:
  //   relu = call_function target=relu args=(x,)
  std::string format() const;

 private:
  friend class Graph;
  Node() = default;

  void add_input_uses();
  void remove_input_uses();

  Graph* graph_ = nullptr;
  Opcode op_ = Opcode::Placeholder;
  std::string name_;
  std::string target_;
  std::vector<Argument> args_;
  Kwargs kwargs_;
  std::set<Node*> users_;
  std::map<std::string, MetaValue> meta_;
};

}  // namespace fxcpp::fx
