"""Workbench for integer-valued functions and their prime values.

Parse expressions like ``x^3+1`` or ``2^(2^x)+1``, check the classical
necessary conditions for representing infinitely many primes, hunt for
least coprime witnesses, count unit-valued patterns, and probe density
predictions, all with explicit budgets so every Unknown is accounted
for.  The ``primework`` console script exposes the same operations.
"""

from .analogy import (AnalogyResult, LiftStatus, check_crt_analogy,
                      check_piecewise_counterexample, find_zm_witness,
                      prime_witness_lift, scan_for_lift_failures)
from .arith import (crt_solve, euler_phi, euler_phi_range, factorize,
                    is_prime, least_coprime_exceeding_one,
                    multiplicative_order, sieve_primes)
from .conditions import (ConditionReport, CoprimeSequence, Status, Verdict,
                         Witness, check_condition_B, check_condition_C,
                         check_condition_D, check_system_conditions,
                         condition_report, find_value_witness,
                         generate_coprime_sequence)
from .config import DEFAULT_CONFIG, WorkbenchConfig, resolve_config
from .counting import (PhiResult, PiResult, implication_check, phi_general,
                       pi_general_exact, pi_general_greedy)
from .density import (ApLeastPrimeTable, ApProductReport, BhConstant,
                      DensityEstimate, PredictedCount, actual_count,
                      ap_product_inequality, bateman_horn_constant,
                      density_estimate, dlvp_ratio, least_prime_ap, omega_p,
                      predicted_count)
from .errors import WorkbenchError
from .expr import (NtFunction, evaluate, evaluate_mod, parse_function,
                   parse_system)
from .factorial import (FactorialWitness, ProbeReport, conjecture3_probe,
                        coprime_to_factorial, in_factorial_zm,
                        least_factorial_witness, less_than_factorial,
                        prop3_scan, section9_probe)
from .fermat import (FermatRecord, FermatStatus, divides_fermat,
                     euler_lucas_search, fermat_coprime_check, fermat_in_zm,
                     fermat_number, finiteness_argument_check,
                     known_fermat_records, verify_factorization)
from .witness import (BoundReport, ExponentIdentityReport, LeastWitnessRecord,
                      exponent_identity_check, s_f, s_system,
                      verify_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
