"""Prompt rendering and experiment configuration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dravlid.prompting import (
    KANNADA_TEMPLATE,
    PLACEHOLDER,
    SWEEP_TEMPERATURES,
    TAMIL_TEMPLATE,
    ExperimentConfig,
    render_prompt,
    sweep_configs,
    template_for,
)
from dravlid.taxonomy import TaskLanguage

KN = TaskLanguage.KANNADA
TM = TaskLanguage.TAMIL

# The exact strings the pipeline must send, frozen independently of the
# template constants so an accidental edit to either side fails loudly.
GOLDEN_KANNADA_MANE = (
    "Please identify which category the word is in English, Kannada, Mixed, "
    "Name, Location, Symbol and Other. Please state en, kn, mixed, name, "
    "location, sym and other. The word is mane."
)
GOLDEN_TAMIL_NALLA = (
    "Please identify which category the word is in English, Tamil, Mixed, "
    "Name, Location, Symbol and Other. Please state en, tm, tmen, name, "
    "Location, sym and Other. The word is nalla."
)


class TestGoldenPrompts:
    def test_kannada_prompt_byte_exact(self):
        assert render_prompt("mane", KN) == GOLDEN_KANNADA_MANE

    def test_tamil_prompt_byte_exact(self):
        assert render_prompt("nalla", TM) == GOLDEN_TAMIL_NALLA

    def test_tamil_capitalizes_location_and_other(self):
        prompt = render_prompt("x", TM)
        assert "Location, sym and Other." in prompt
        assert render_prompt("x", KN).count("location, sym and other.") == 1

    def test_templates_have_exactly_one_placeholder(self):
        assert KANNADA_TEMPLATE.count(PLACEHOLDER) == 1
        assert TAMIL_TEMPLATE.count(PLACEHOLDER) == 1

    def test_template_for(self):
        assert template_for(KN) is KANNADA_TEMPLATE
        assert template_for(TM) is TAMIL_TEMPLATE


class TestRenderProperties:
    @given(st.text(alphabet=st.characters(codec="ascii", categories=["L", "N"]), min_size=1, max_size=20))
    @pytest.mark.parametrize("task", [KN, TM])
    def test_word_substituted_exactly_once(self, task, word):
        template = template_for(task)
        rendered = render_prompt(word, task)
        # The template itself may contain the word ("is", "and", ...), so
        # count against the template with the placeholder removed.
        background = template.replace(PLACEHOLDER, "").count(word)
        assert rendered.count(word) == background + 1
        assert PLACEHOLDER not in rendered

    @given(st.text(alphabet=st.characters(codec="ascii", categories=["L", "N"]), min_size=1, max_size=20))
    def test_everything_but_the_word_is_template(self, word):
        for task in (KN, TM):
            template = template_for(task)
            prefix, suffix = template.split(PLACEHOLDER)
            rendered = render_prompt(word, task)
            assert rendered.startswith(prefix)
            assert rendered.endswith(suffix)
            assert rendered[len(prefix) : len(rendered) - len(suffix)] == word

    def test_word_used_raw_no_case_folding(self):
        assert render_prompt("TajMAHAL", KN).endswith("The word is TajMAHAL.")

    @pytest.mark.parametrize("bad", ["", "   ", "\t"])
    def test_empty_word_rejected(self, bad):
        with pytest.raises(ValueError):
            render_prompt(bad, KN)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig(task=KN)
        assert config.model_id == "gpt-3.5-turbo"
        assert config.temperature == 0.7
        assert config.max_output_tokens == 16
        assert config.run_label == "kannada-t0.7"

    def test_run_label_override(self):
        config = ExperimentConfig(task=TM, run_label="pilot")
        assert config.run_label == "pilot"

    @pytest.mark.parametrize("temp", [-0.1, 2.1, 100.0])
    def test_temperature_bounds(self, temp):
        with pytest.raises(ValueError):
            ExperimentConfig(task=KN, temperature=temp)

    @pytest.mark.parametrize("temp", [0.0, 0.7, 2.0, 1])
    def test_temperature_endpoints_ok(self, temp):
        config = ExperimentConfig(task=KN, temperature=temp)
        assert config.temperature == temp
        assert config.run_label == f"kannada-t{float(temp)}"

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task=KN, model_id="")


class TestSweepConfigs:
    def test_default_temperatures(self):
        assert SWEEP_TEMPERATURES == (0.7, 0.8, 0.9)
        configs = sweep_configs(TM, "gpt-3.5-turbo")
        assert [c.temperature for c in configs] == [0.7, 0.8, 0.9]
        assert [c.run_label for c in configs] == [
            "tamil-t0.7",
            "tamil-t0.8",
            "tamil-t0.9",
        ]

    def test_custom_temperatures_preserve_order(self):
        configs = sweep_configs(KN, "m", temperatures=(1.5, 0.2))
        assert [c.temperature for c in configs] == [1.5, 0.2]
        assert all(c.model_id == "m" for c in configs)
