"""Channel modeling and security analysis for capacitive EQS human body communication.

Submodules
----------
netlist      netlist data model and text format
solver       complex MNA AC solver, frequency grids, transfer sweeps
coupling     the C_C(d) coupling-capacitance model and the flat-band coupling ratio
bodychannel  intra-/inter-body circuit builders and calibrations
multiregion  stitched 100 kHz - 1 GHz response, region labels, crossovers,
             detection distances
risk         snooper SNR / safe-level analysis and co-channel SIR
fcc          unintentional-radiator limits and field-decay margins
config       shared key-value config files
cli          command-line front end

The names below are exported lazily (PEP 562): ``eqshbc.transfer`` imports
its submodule on first access, so ``import eqshbc`` loads no submodule and
no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# The names each submodule exports through the package.
_SUBMODULE_EXPORTS = {
    "bodychannel": ("BodyChannelParams", "Environment", "InterBodyParams", "LoadSpec",
                    "build_inter_body", "build_intra_body", "extra_loss_db"),
    "coupling": ("CouplingCapModel", "coupling_coefficient", "default_coupling_model",
                 "fit_coupling_model"),
    "fcc": ("FieldDecayModel", "fcc_limit", "field_at", "is_unintentional_radiator",
            "margin_factor"),
    "multiregion": ("DeviceModel", "EmBodyModel", "RegionConfig", "RegionLabel",
                    "body_em_pair_gain", "crossover_frequency", "default_region_config",
                    "device_pair_gain", "total_response"),
    "netlist": ("Element", "Netlist", "NetlistError", "format_netlist", "parse_netlist"),
    "risk": ("AttackScenario", "InterferenceScenario", "is_attack_feasible",
             "max_cochannel_users", "max_safe_snr", "min_safe_distance", "sir_db",
             "snooper_snr_db"),
    "solver": ("FrequencyGrid", "SingularCircuitError", "SweepResult", "solve_ac", "transfer"),
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:  # also how ``from eqshbc import <submodule>`` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
