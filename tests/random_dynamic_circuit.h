/// Seeded random dynamic circuits for oracle property tests: gates,
/// barriers, mid-circuit measures, resets, and gates conditioned on an
/// already-measured bit, over a few qubits.
#ifndef CAQR_TESTS_RANDOM_DYNAMIC_CIRCUIT_H
#define CAQR_TESTS_RANDOM_DYNAMIC_CIRCUIT_H

#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "util/rng.h"

namespace caqr::testing {

inline circuit::Circuit
random_dynamic_circuit(util::Rng& rng)
{
    const int qubits = rng.next_int(3, 7);
    circuit::Circuit c(qubits, qubits);
    std::vector<int> written;  // clbits measured so far
    auto other = [&](int q) {
        const int r = rng.next_int(0, qubits - 2);
        return r >= q ? r + 1 : r;
    };
    const int ops = rng.next_int(10, 30);
    for (int op = 0; op < ops; ++op) {
        const int q = rng.next_int(0, qubits - 1);
        switch (rng.next_int(0, 11)) {
        case 0: c.h(q); break;
        case 1: c.x(q); break;
        case 2: c.t(q); break;
        case 3:
        case 4:
        case 5: c.cx(q, other(q)); break;
        case 6:
            if (rng.next_bool(0.5)) {
                c.barrier();
            } else {
                // A barrier naming operands: still global in the DAG,
                // and its operands are not operations on those qubits.
                circuit::Instruction barrier;
                barrier.kind = circuit::GateKind::kBarrier;
                barrier.qubits = {q, other(q)};
                c.append(std::move(barrier));
            }
            break;
        case 7: {
            const int bit = rng.next_int(0, qubits - 1);
            c.measure(q, bit);
            written.push_back(bit);
            break;
        }
        case 8: c.reset(q); break;
        case 9:
        case 10:
            if (written.empty()) {
                c.measure(q, q);
                written.push_back(q);
            } else {
                const int bit = written[static_cast<std::size_t>(
                    rng.next_int(0, static_cast<int>(written.size()) - 1))];
                if (rng.next_bool(0.5)) {
                    c.x_if(q, bit, 1);
                } else {
                    c.z_if(q, bit, 1);
                }
            }
            break;
        default: {
            const int r = other(q);
            int s = rng.next_int(0, qubits - 1);
            if (s == q || s == r) s = -1;
            if (s >= 0) {
                c.ccx(q, r, s);
            } else {
                c.cz(q, r);
            }
            break;
        }
        }
    }
    // Final measurements on a random subset: some wires end in a
    // measurement (existing-clbit splice), some do not (scratch bit).
    for (int q = 0; q < qubits; ++q) {
        if (rng.next_bool(0.6)) c.measure(q, q);
    }
    return c;
}

}  // namespace caqr::testing

#endif  // CAQR_TESTS_RANDOM_DYNAMIC_CIRCUIT_H
