#include "majsynth/network.hpp"

#include <array>
#include <bit>
#include <span>
#include <stdexcept>

#include "common/bitvec.hpp"

namespace simra::majsynth {

std::size_t NetworkCost::total_maj() const {
  std::size_t total = 0;
  for (const auto& [fanin, count] : maj_by_fanin) total += count;
  return total;
}

unsigned NetworkCost::max_fanin() const {
  return maj_by_fanin.empty() ? 0 : maj_by_fanin.rbegin()->first;
}

int Network::add_gate(Gate gate) {
  gates_.push_back(std::move(gate));
  return static_cast<int>(gates_.size() - 1);
}

void Network::check_node(int node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= gates_.size())
    throw std::out_of_range("gate references unknown node");
}

int Network::add_input(std::string name) {
  Gate g;
  g.kind = GateKind::kInput;
  const int id = add_gate(std::move(g));
  inputs_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

int Network::const_zero() {
  if (const_zero_ < 0) {
    Gate g;
    g.kind = GateKind::kConstZero;
    const_zero_ = add_gate(std::move(g));
  }
  return const_zero_;
}

int Network::const_one() {
  if (const_one_ < 0) {
    Gate g;
    g.kind = GateKind::kConstOne;
    const_one_ = add_gate(std::move(g));
  }
  return const_one_;
}

int Network::add_maj(std::vector<int> inputs) {
  if (inputs.size() < 3 || inputs.size() % 2 == 0)
    throw std::invalid_argument("majority fan-in must be odd and >= 3");
  for (int node : inputs) check_node(node);
  Gate g;
  g.kind = GateKind::kMaj;
  g.inputs = std::move(inputs);
  return add_gate(std::move(g));
}

int Network::add_not(int input) {
  check_node(input);
  Gate g;
  g.kind = GateKind::kNot;
  g.inputs = {input};
  return add_gate(std::move(g));
}

void Network::mark_output(int node) {
  check_node(node);
  outputs_.push_back(node);
}

std::vector<std::uint64_t> Network::evaluate(
    const std::vector<std::uint64_t>& input_words) const {
  if (input_words.size() != inputs_.size())
    throw std::invalid_argument("input word count mismatch");

  std::vector<std::uint64_t> value(gates_.size(), 0);
  std::size_t next_input = 0;
  // Gates are created in topological order by construction (a gate can
  // only reference already-added nodes), so one forward pass suffices.
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    switch (g.kind) {
      case GateKind::kInput:
        value[i] = input_words[next_input++];
        break;
      case GateKind::kConstZero:
        value[i] = 0;
        break;
      case GateKind::kConstOne:
        value[i] = ~0ULL;
        break;
      case GateKind::kNot:
        value[i] = ~value[static_cast<std::size_t>(g.inputs[0])];
        break;
      case GateKind::kMaj: {
        std::array<std::uint64_t, 64> storage{};
        const std::span<std::uint64_t> planes(
            storage.data(),
            static_cast<std::size_t>(std::bit_width(g.inputs.size())));
        for (int in : g.inputs)
          bitslice_add(planes, value[static_cast<std::size_t>(in)]);
        value[i] = bitslice_greater(planes, g.inputs.size() / 2);
        break;
      }
    }
  }

  std::vector<std::uint64_t> out;
  out.reserve(outputs_.size());
  for (int node : outputs_) out.push_back(value[static_cast<std::size_t>(node)]);
  return out;
}

NetworkCost Network::cost() const {
  NetworkCost cost;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::kMaj)
      ++cost.maj_by_fanin[static_cast<unsigned>(g.inputs.size())];
    else if (g.kind == GateKind::kNot)
      ++cost.not_gates;
  }
  return cost;
}

}  // namespace simra::majsynth
