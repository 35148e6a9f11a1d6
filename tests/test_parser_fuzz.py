"""Fuzz the four text parsers: each returns a value or raises an RbscError.

Documents follow a token grammar close to the real formats, with the
well-formed header most of the time, so that the generated text reaches the
semantic checks behind the header and the integer parsing, not only the
first-line rejections.  Raw text covers everything else.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rbsc import generators, model
from rbsc.errors import RbscError

PARSERS = (
    model.parse_instance,
    model.parse_solution,
    generators.parse_setcover,
    generators.parse_mcgraph,
)

# Small integers dominate, so ids collide and counts come out 0, 1 or 2 often.
ODD = ["-1", "x", "²", "٣", "1_0", "+1", "inf", ":", "1/2", "-3/4", "1/0", "w=2", "w=0", "B", "R"]
TOKEN = st.one_of(st.integers(0, 4).map(str), st.integers(0, 4).map(str), st.sampled_from(ODD))
TAIL = st.lists(TOKEN, max_size=4).map(" ".join)


def _line(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(
        lambda toks: " ".join(t for t in toks if t)
    )


# format name -> (header lines, body line strategies)
GRAMMAR = {
    "instance": (
        [
            _line("rbsc", "1"),
            _line("mode", st.sampled_from(["abstract", "geometric"])),
            _line("budget_lines", TOKEN),
            _line("budget_red", TOKEN),
        ],
        [_line("point", TOKEN, st.sampled_from(["B", "R"]), TAIL), _line("set", TOKEN, ":", TAIL)],
    ),
    "solution": (
        [_line("solution", st.sampled_from(["yes", "no"]))],
        [_line(st.sampled_from(["set", "red", "blue"]), TOKEN)],
    ),
    "setcover": (
        [_line("setcover", "1")],
        [_line("n", TOKEN), _line("k", TOKEN), _line("set", TOKEN, ":", TAIL)],
    ),
    "mcgraph": (
        [_line("mcgraph", "1")],
        [_line("classes", TOKEN), _line("vertex", TOKEN, TOKEN), _line("edge", TOKEN, TOKEN)],
    ),
}
JUNK = st.one_of(TAIL, st.just("# comment"), st.just(""))


@st.composite
def documents(draw):
    headers, body = GRAMMAR[draw(st.sampled_from(sorted(GRAMMAR)))]
    lines = [draw(h) if draw(st.integers(0, 9)) else draw(JUNK) for h in headers]
    lines += draw(st.lists(st.one_of(*body, JUNK), max_size=8))
    return "\n".join(lines) + "\n"


def _parse_all(text):
    for parse in PARSERS:
        try:
            parse(text)
        except RbscError:
            pass


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(documents())
def test_parsers_on_grammar_documents_raise_only_rbsc_errors(text):
    _parse_all(text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.text())
def test_parsers_on_raw_text_raise_only_rbsc_errors(text):
    _parse_all(text)
