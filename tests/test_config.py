import os
import re

import pytest

from veiltrain.errors import ParseError
from veiltrain.fixedpoint import RingConfig
from veiltrain.harness import training_config
from veiltrain.shareio import (CONFIG_KEYS, DEFAULTS, FINEST_FRAC_BITS, PUBLIC_KEYS,
                               format_config, parse_config_text, public_section,
                               ring_from_config)
from veiltrain.training import TrainingConfig

from conftest import ACCEPTED_RINGS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_the_ring_and_training_defaults_are_their_classes():
    assert training_config(DEFAULTS) == TrainingConfig()
    assert ring_from_config(DEFAULTS) == RingConfig()


def test_accepted_rings_are_the_ones_every_test_sweeps():
    accepted = []
    for frac_bits in range(1, 32):
        try:
            ring_from_config(dict(DEFAULTS, frac_bits=frac_bits))
        except ParseError:
            continue
        accepted.append(frac_bits)
    assert accepted == list(ACCEPTED_RINGS)


def test_a_ring_finer_than_the_finest_is_refused_naming_the_limit():
    # from 23 bits secure_div's error passes its bound (3.9e-3 at 24), and
    # at 22 the noise's largest operands already pass 2^56
    assert FINEST_FRAC_BITS == max(ACCEPTED_RINGS) == 22
    with pytest.raises(ParseError, match="^frac_bits = 23 is too fine: .* has 22$"):
        ring_from_config(dict(DEFAULTS, frac_bits=23))


def test_formatted_defaults_parse_back():
    assert parse_config_text(format_config(DEFAULTS)) == DEFAULTS


def test_public_section_needs_every_public_key():
    assert set(public_section(DEFAULTS)) == set(PUBLIC_KEYS)
    for key in PUBLIC_KEYS:
        cfg = dict(DEFAULTS)
        del cfg[key]
        with pytest.raises(KeyError, match=key):
            public_section(cfg)


@pytest.mark.parametrize("value", ["threads", "proces", ""])
def test_unknown_executor_is_a_parse_error(value):
    with pytest.raises(ParseError, match="executor"):
        parse_config_text(f"executor = {value}\n")
    assert parse_config_text("executor = thread\n")["executor"] == "thread"


def test_readme_table_names_exactly_the_config_keys():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config file", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`([a-z0-9_]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("key", ["alpha", "momentum", "epochs", "batch_size", "skip_norm",
                                 "lambda"])
def test_removed_keys_are_parse_errors(key):
    # the schedule follows from lambda_reg and the row bound, and the ring
    # is 2^64 with frac_bits alone; a config that still sets one of the old
    # keys stops, naming the key
    with pytest.raises(ParseError, match=f"line 1: unknown config key '{key}'"):
        parse_config_text(f"{key} = 64\n")


def test_training_keys_are_lambda_and_the_bias_column():
    assert TrainingConfig().public() == {"lambda_reg": 1.0, "add_bias": 0}
    assert RingConfig().public() == {"frac_bits": 20}
    assert len(CONFIG_KEYS) == 25 and len(PUBLIC_KEYS) == 6


def test_no_seed_is_public_and_no_role_seed_has_a_default():
    # the handshake carries no seed, and a role without its own seed draws
    # one (partyproc.own_seed) rather than share a default with its peer
    assert not [key for key in PUBLIC_KEYS if "seed" in key]
    assert {"dealer_seed", "bit_seed"} <= set(CONFIG_KEYS)
    assert not {"dealer_seed", "bit_seed"} & set(DEFAULTS)
