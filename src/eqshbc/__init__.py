"""Channel modeling and security analysis for capacitive EQS human body communication.

Submodules
----------
netlist      netlist data model and text format
solver       complex MNA AC solver, frequency grids, transfer sweeps
bodychannel  intra-/inter-body circuit builders and the C_C(d) coupling model
multiregion  stitched 100 kHz - 1 GHz response, region labels, crossovers,
             detection distances
risk         snooper SNR / safe-level analysis and co-channel SIR
fcc          unintentional-radiator limits and field-decay margins
config       shared key-value config files
cli          command-line front end
"""

from .bodychannel import (
    BodyChannelParams,
    CouplingCapModel,
    Environment,
    InterBodyParams,
    LoadSpec,
    build_inter_body,
    build_intra_body,
    coupling_coefficient,
    default_coupling_model,
    extra_loss_db,
    fit_coupling_model,
)
from .fcc import FieldDecayModel, fcc_limit, field_at, is_unintentional_radiator, margin_factor
from .multiregion import (
    DeviceModel,
    EmBodyModel,
    RegionConfig,
    RegionLabel,
    body_em_pair_gain,
    crossover_frequency,
    default_region_config,
    device_pair_gain,
    total_response,
)
from .netlist import Element, Netlist, NetlistError, format_netlist, parse_netlist
from .risk import (
    AttackScenario,
    InterferenceScenario,
    is_attack_feasible,
    max_cochannel_users,
    max_safe_snr,
    min_safe_distance,
    sir_db,
    snooper_snr_db,
)
from .solver import FrequencyGrid, SingularCircuitError, SweepResult, solve_ac, transfer

__version__ = "0.1.0"
