/// Tests for the gate-dependency DAG: structure, depth/duration,
/// criticality, and the qubit-level reuse legality queries it backs,
/// checked against node-level oracles on random dynamic circuits.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/benchmarks.h"
#include "circuit/dag.h"
#include "circuit/timing.h"
#include "random_dynamic_circuit.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::CircuitDag;
using circuit::LogicalDurations;
using circuit::UnitDepthModel;

TEST(Dag, LinearChainDepth)
{
    Circuit c(1, 0);
    c.h(0);
    c.x(0);
    c.z(0);
    CircuitDag dag(c);
    EXPECT_EQ(dag.depth(), 3);
    EXPECT_EQ(dag.graph().num_edges(), 2);
}

TEST(Dag, ParallelGatesShareDepth)
{
    Circuit c(3, 0);
    c.h(0);
    c.h(1);
    c.h(2);
    CircuitDag dag(c);
    EXPECT_EQ(dag.depth(), 1);
    EXPECT_EQ(dag.graph().num_edges(), 0);
}

TEST(Dag, TwoQubitGateJoinsWires)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.h(1);
    CircuitDag dag(c);
    EXPECT_EQ(dag.depth(), 3);
    EXPECT_TRUE(dag.graph().has_edge(0, 2));
    EXPECT_TRUE(dag.graph().has_edge(1, 2));
    EXPECT_TRUE(dag.graph().has_edge(2, 3));
}

TEST(Dag, BarrierOrdersAcrossWires)
{
    Circuit c(2, 0);
    c.h(0);
    c.barrier();
    c.h(1);
    CircuitDag dag(c);
    // Without the barrier depth would be 1; the barrier forces h(1)
    // after h(0).
    EXPECT_EQ(dag.depth(), 2);
}

TEST(Dag, ClassicalDependencyMeasureThenConditioned)
{
    Circuit c(2, 1);
    c.measure(0, 0);
    c.x_if(1, 0, 1);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.graph().has_edge(0, 1));
}

TEST(Dag, DurationUsesModelWeights)
{
    Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(1, 1);
    CircuitDag dag(c);
    LogicalDurations model;
    EXPECT_DOUBLE_EQ(dag.duration(model),
                     LogicalDurations::kOneQubitGate +
                         LogicalDurations::kTwoQubitGate +
                         LogicalDurations::kMeasure);
}

TEST(Dag, ConditionedGateUsesFeedforwardDuration)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    c.x_if(0, 0, 1);
    CircuitDag dag(c);
    LogicalDurations model;
    // The paper's Fig 2(b) pair: 15,600 + 867 = 16,467 dt.
    EXPECT_DOUBLE_EQ(dag.duration(model), 16'467.0);
}

TEST(Dag, BuiltinResetIsSlower)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    c.reset(0);
    CircuitDag dag(c);
    LogicalDurations model;
    // Fig 2(a): 15,600 + 17,579 = 33,179 dt, ~2x the conditional form.
    EXPECT_DOUBLE_EQ(dag.duration(model), 33'179.0);
}

TEST(Dag, NodesOnQubit)
{
    Circuit c(2, 0);
    c.h(0);
    c.cx(0, 1);
    c.h(1);
    CircuitDag dag(c);
    EXPECT_EQ(dag.nodes_on_qubit(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(dag.nodes_on_qubit(1), (std::vector<int>{1, 2}));
}

TEST(Dag, QubitsShareGate)
{
    Circuit c(3, 0);
    c.cx(0, 1);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubits_share_gate(0, 1));
    EXPECT_TRUE(dag.qubits_share_gate(1, 0));
    EXPECT_FALSE(dag.qubits_share_gate(0, 2));
}

TEST(Dag, QubitDependsOnTransitively)
{
    // Fig 7-style: g(q0,q1), g(q1,q2): ops on q2 depend on ops on q0.
    Circuit c(3, 0);
    c.cx(0, 1);
    c.cx(1, 2);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_depends_on(2, 0));
    EXPECT_FALSE(dag.qubit_depends_on(0, 2));
}

TEST(Dag, CriticalNodes)
{
    Circuit c(3, 0);
    c.h(0);   // node 0: on the 2-deep path
    c.x(0);   // node 1
    c.h(1);   // node 2: slack 1
    CircuitDag dag(c);
    UnitDepthModel unit;
    const auto critical = dag.critical_nodes(unit);
    EXPECT_TRUE(critical[0]);
    EXPECT_TRUE(critical[1]);
    EXPECT_FALSE(critical[2]);
}

TEST(Dag, ReuseCriticalPathAddsDummy)
{
    // Two independent wires; reusing q0's wire for q1 serializes them.
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    CircuitDag dag(c);
    UnitDepthModel unit;
    EXPECT_DOUBLE_EQ(dag.reuse_critical_path(0, 1, unit, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(dag.reuse_critical_path(0, 1, unit, 0.0), 2.0);
}

TEST(Dag, BvStructureMatchesPaper)
{
    // BV over n qubits: depth is constant-ish (H layer, CX fan-in
    // serializes on the ancilla, H layer, measure).
    const auto bv = apps::bv_circuit(5);
    CircuitDag dag(bv);
    // Ancilla wire dominates: X, H, 4 serialized CXs, H, measure = 8.
    EXPECT_EQ(dag.depth(), 8);
}

TEST(Dag, QubitDependenceFollowsClassicalBit)
{
    // q1's conditioned gate reads the bit q0 wrote: q1 depends on q0.
    Circuit c(3, 1);
    c.measure(0, 0);
    c.x_if(1, 0, 1);
    c.h(2);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_depends_on(1, 0));
    EXPECT_FALSE(dag.qubit_depends_on(0, 1));
    EXPECT_FALSE(dag.qubit_depends_on(2, 0));
}

TEST(Dag, BarrierPassesAncestryWithoutQubits)
{
    // h(1) follows h(0) through the barrier; the barrier node itself
    // spans every qubit but contributes none of them as an ancestor.
    Circuit c(3, 0);
    c.h(0);
    c.barrier();
    c.h(1);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_depends_on(1, 0));
    EXPECT_FALSE(dag.qubit_depends_on(0, 1));
    EXPECT_FALSE(dag.qubit_depends_on(1, 2));
    EXPECT_FALSE(dag.qubits_share_gate(0, 1));
}

// ---------------------------------------------------------------------
// Qubit-level queries against node-level oracles
// ---------------------------------------------------------------------

TEST(QubitReachability, DependsOnMatchesNodeLevelPaths)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        util::Rng rng(seed);
        const Circuit c = testing::random_dynamic_circuit(rng);
        CircuitDag dag(c);
        const int k = c.num_qubits();
        for (int qi = 0; qi < k; ++qi) {
            for (int qj = 0; qj < k; ++qj) {
                bool expected = false;
                for (int src : dag.nodes_on_qubit(qj)) {
                    for (int dst : dag.nodes_on_qubit(qi)) {
                        expected = expected ||
                                   (src != dst &&
                                    dag.graph().has_path(src, dst));
                    }
                }
                EXPECT_EQ(dag.qubit_depends_on(qi, qj), expected)
                    << "seed " << seed << " qi " << qi << " qj " << qj;
            }
        }
    }
}

TEST(QubitReachability, ShareGateMatchesInstructionWalk)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        util::Rng rng(seed);
        const Circuit c = testing::random_dynamic_circuit(rng);
        CircuitDag dag(c);
        const int k = c.num_qubits();
        for (int qi = 0; qi < k; ++qi) {
            for (int qj = 0; qj < k; ++qj) {
                bool expected = false;
                for (int node : dag.nodes_on_qubit(qi)) {
                    expected = expected ||
                               c.at(static_cast<std::size_t>(node))
                                   .uses_qubit(qj);
                }
                EXPECT_EQ(dag.qubits_share_gate(qi, qj), expected)
                    << "seed " << seed << " qi " << qi << " qj " << qj;
            }
        }
    }
}

TEST(QubitReachability, WideCircuitCrossesWordBoundaries)
{
    // 130 qubits: the matrices span three 64-bit words per row.
    const auto bv = apps::bv_circuit(130);
    CircuitDag dag(bv);
    const int ancilla = 129;
    for (int q : {0, 63, 64, 127, 128}) {
        EXPECT_TRUE(dag.qubits_share_gate(q, ancilla)) << q;
        EXPECT_TRUE(dag.qubit_depends_on(ancilla, q)) << q;
        EXPECT_FALSE(dag.qubits_share_gate(q, (q + 1) % ancilla)) << q;
    }
    // The ancilla's CX fan-in serializes: data qubit 64's final H runs
    // after data qubit 63's CX.
    EXPECT_TRUE(dag.qubit_depends_on(64, 63));
    EXPECT_FALSE(dag.qubit_depends_on(63, 64));
}

}  // namespace
}  // namespace caqr
