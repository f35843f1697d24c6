"""Zero-shot prompt rendering and experiment configuration.

The two templates are fixed constants, one word per prompt. The Tamil
template capitalizes "Location" and "Other" in its code list; that casing
is part of the template and must not be "fixed".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from dravlid.taxonomy import TaskLanguage

PLACEHOLDER = "<Word>"

KANNADA_TEMPLATE = (
    "Please identify which category the word is in English, Kannada, Mixed, "
    "Name, Location, Symbol and Other. Please state en, kn, mixed, name, "
    "location, sym and other. The word is <Word>."
)

TAMIL_TEMPLATE = (
    "Please identify which category the word is in English, Tamil, Mixed, "
    "Name, Location, Symbol and Other. Please state en, tm, tmen, name, "
    "Location, sym and Other. The word is <Word>."
)

_TEMPLATES = {
    TaskLanguage.KANNADA: KANNADA_TEMPLATE,
    TaskLanguage.TAMIL: TAMIL_TEMPLATE,
}

DEFAULT_MODEL_ID = "gpt-3.5-turbo"
DEFAULT_MAX_OUTPUT_TOKENS = 16
SWEEP_TEMPERATURES = (0.7, 0.8, 0.9)


def render_prompt(word: str, task: TaskLanguage) -> str:
    """Substitute the raw word into the task template, nothing else."""
    if not word or not word.strip():
        raise ValueError("cannot render a prompt for an empty word")
    return _TEMPLATES[task].replace(PLACEHOLDER, word)


@dataclass(frozen=True)
class ExperimentConfig:
    """One classification run: task, model, sampling temperature, budget."""

    task: TaskLanguage
    model_id: str = DEFAULT_MODEL_ID
    temperature: float = 0.7
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    run_label: str = field(default="")

    def __post_init__(self) -> None:
        # 1 and 1.0 must give one cache key and one run label.
        object.__setattr__(self, "temperature", float(self.temperature))
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 2]")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")
        if not self.run_label:
            object.__setattr__(
                self, "run_label", f"{self.task.value}-t{self.temperature}"
            )


def sweep_configs(
    task: TaskLanguage,
    model_id: str,
    temperatures: list[float] | tuple[float, ...] = SWEEP_TEMPERATURES,
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
) -> list[ExperimentConfig]:
    """One config per temperature, input order preserved.

    Temperatures are compared as floats, so 1 and 1.0 are one temperature
    and may not both be given: the runs would share a label and output files.
    """
    if not temperatures:
        raise ValueError("temperatures must be non-empty")
    configs = [
        ExperimentConfig(
            task=task,
            model_id=model_id,
            temperature=t,
            max_output_tokens=max_output_tokens,
        )
        for t in temperatures
    ]
    temps = [c.temperature for c in configs]
    if len(set(temps)) < len(temps):
        raise ValueError(f"sweep temperatures repeat: {', '.join(map(str, temps))}")
    return configs
