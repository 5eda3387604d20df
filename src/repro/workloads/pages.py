"""Synthetic Alexa-like Web page corpus.

Pages are generated from seeded distributions matched to 2018 HTTP-Archive
medians (≈2 MB, 60–110 objects) with category-dependent structure: news
and sports pages carry substantially more scripting — the paper finds them
~6× more sensitive to CPU clock — and their scripts lean on repeated
regex list-filtering (the shape §4.2 offloads).

Every script's regex calls are *measured* through the real engine at
generation time via :class:`~repro.workloads.regexcorpus.RegexWorkloadFactory`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.jsruntime import CpuCostModel, JsFunction, Script
from repro.workloads.regexcorpus import RegexWorkloadFactory, synth_url

#: Page categories; the paper samples business, health, shopping, news,
#: and sports.
CATEGORIES = ("business", "health", "shopping", "news", "sports")

#: Categories whose scripts are regex/list heavy.
SCRIPT_HEAVY = ("news", "sports")


@dataclass(frozen=True)
class WebObject:
    """One fetchable resource in a page's dependency graph.

    ``parent`` is the object whose processing discovers this one (``None``
    for the root document).  ``discovery_frac`` places the discovery point
    within the parent's processing (0 = immediately, 1 = at its end).
    ``blocking`` marks classic synchronous ``<script>`` tags that stall the
    HTML parser until downloaded and executed.
    """

    index: int
    url: str
    origin_host: str
    kind: str  # 'html' | 'css' | 'js' | 'img' | 'font' | 'xhr'
    size_bytes: int
    parent: Optional[int]
    discovery_frac: float
    blocking: bool = False
    script: Optional[Script] = None
    #: Below-the-fold image: the fetch starts only after first paint.
    lazy: bool = False
    #: False for resources the preload scanner cannot see (inline-script
    #: document.write insertions): their fetch starts only when the parser
    #: reaches ``discovery_frac``.
    scanner_visible: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("html", "css", "js", "img", "font", "xhr"):
            raise ValueError(f"unknown object kind {self.kind!r}")
        if not 0.0 <= self.discovery_frac <= 1.0:
            raise ValueError("discovery_frac must lie in [0, 1]")


@dataclass(frozen=True)
class PageSpec:
    """A complete page: objects, dependency graph, compute footprint."""

    url: str
    category: str
    objects: tuple[WebObject, ...]
    layout_ops: float
    paint_ops: float

    @property
    def root(self) -> WebObject:
        return self.objects[0]

    @property
    def total_bytes(self) -> int:
        return sum(obj.size_bytes for obj in self.objects)

    @property
    def scripts(self) -> tuple[Script, ...]:
        return tuple(o.script for o in self.objects if o.script is not None)

    @property
    def working_set_gb(self) -> float:
        """Chrome-plus-page working set: browser baseline + decoded content."""
        return 0.28 + self.total_bytes * 40e-9

    def scripting_ops(self, cost: Optional[CpuCostModel] = None) -> float:
        """Total scripting reference ops (compile + execute, CPU pricing)."""
        cost = cost or CpuCostModel()
        return sum(cost.script_ops(s) for s in self.scripts)


# -- generation ----------------------------------------------------------


def _lognormalish(rng: random.Random, low: float, high: float) -> float:
    """Skewed draw in [low, high] (squared-uniform keeps small values common)."""
    span = high - low
    return low + span * rng.random() ** 2


def _make_script(
    rng: random.Random,
    url: str,
    size_bytes: int,
    exec_ops_target: float,
    list_heavy: bool,
    factory: RegexWorkloadFactory,
    cost: CpuCostModel,
) -> Script:
    """A script whose total executed ops land near ``exec_ops_target``.

    Functions are drawn until the cumulative (generic + measured regex)
    cost reaches the target; roughly a fifth of the work ends up in regex
    calls for list-heavy scripts, single-digit percent otherwise.
    """
    regex_share = rng.uniform(0.45, 0.58) if list_heavy else rng.uniform(0.02, 0.08)
    functions: list[JsFunction] = []
    accumulated = 0.0
    index = 0
    while accumulated < exec_ops_target:
        fn_ops = min(
            _lognormalish(rng, 8e6, 1.2e8), exec_ops_target - accumulated + 4e6
        )
        calls = ()
        regex_ops = 0.0
        if rng.random() < (0.75 if list_heavy else 0.30):
            calls = factory.make_calls(rng, rng.randint(1, 4), list_heavy)
            regex_ops = sum(cost.call_ops(c) for c in calls)
            # Scale call volume toward the target share via repeats.
            want = fn_ops * regex_share
            if regex_ops > 0 and want > regex_ops:
                scale = max(1, round(want / regex_ops))
                calls = tuple(
                    type(c)(c.pattern, c.subject_chars, c.mode, c.pike_ops,
                            c.dfa_ops, c.repeats * scale)
                    for c in calls
                )
                regex_ops = sum(cost.call_ops(c) for c in calls)
        generic = max(fn_ops - regex_ops, 1e6)
        functions.append(JsFunction(f"fn_{index}", generic, calls))
        accumulated += generic + regex_ops
        index += 1
    return Script(url=url, compile_ops=2.0 * size_bytes, functions=tuple(functions))


#: Per-category structural parameters:
#: (sync js, async js, css, images, scripting ops, total target bytes)
_CATEGORY_SHAPE = {
    "business": ((3, 6), (2, 5), (3, 6), (12, 30), (0.8e9, 1.3e9), 1.6e6),
    "health": ((3, 6), (2, 5), (3, 6), (14, 32), (0.8e9, 1.3e9), 1.7e6),
    "shopping": ((4, 8), (3, 7), (4, 8), (20, 45), (1.3e9, 2.0e9), 2.2e6),
    "news": ((6, 11), (4, 9), (4, 8), (22, 50), (3.8e9, 5.5e9), 2.6e6),
    "sports": ((6, 11), (4, 9), (4, 8), (22, 50), (4.0e9, 5.8e9), 2.6e6),
}

_ORIGINS = (
    "www.page-origin.com", "cdn.page-origin.com", "static.thirdparty.net",
    "ads.trackerhub.com", "analytics.metricsrv.com", "img.mediacdn.io",
)

#: Ad-tech origins used by injected script chains: each hop of a
#: document.write chain typically lands on a *different* third party, so
#: every hop pays DNS + TCP + TLS on a cold connection.
_AD_ORIGINS = (
    "tags.admanager-one.com", "sync.bidexchange.net", "px.audiencegraph.io",
    "cdn.headerbid.tv", "beacon.viewmetrics.com", "match.dspnetwork.org",
)


def generate_page(
    seed: int,
    category: str = "news",
    factory: Optional[RegexWorkloadFactory] = None,
    cost: Optional[CpuCostModel] = None,
    bytes_factor: float = 1.0,
    ops_factor: float = 1.0,
    chain_intensity: float = 1.0,
) -> PageSpec:
    """Generate one page deterministically from ``seed``/``category``.

    ``bytes_factor``/``ops_factor`` rescale the page's byte and scripting
    budgets, and ``chain_intensity`` scales the prevalence of injected
    ad-tech script chains — the historical study (Fig 1) uses them to
    regenerate pages as they looked in earlier years.
    """
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; choose from {CATEGORIES}")
    if bytes_factor <= 0 or ops_factor <= 0:
        raise ValueError("scale factors must be positive")
    rng = random.Random((seed, category).__repr__())
    factory = factory or RegexWorkloadFactory()
    cost = cost or CpuCostModel()
    (js_lo, js_hi), (ajs_lo, ajs_hi), (css_lo, css_hi), (img_lo, img_hi), \
        (ops_lo, ops_hi), bytes_target = _CATEGORY_SHAPE[category]
    ops_lo, ops_hi = ops_lo * ops_factor, ops_hi * ops_factor
    bytes_target = bytes_target * bytes_factor
    list_heavy = category in SCRIPT_HEAVY

    objects: list[WebObject] = []
    root_host = _ORIGINS[0]
    html_bytes = int(_lognormalish(rng, 40e3, 180e3) * bytes_factor)
    objects.append(WebObject(0, f"https://{root_host}/", root_host, "html",
                             html_bytes, None, 0.0))

    def add(kind: str, size: int, parent: int, frac: float,
            blocking: bool = False, script: Optional[Script] = None,
            lazy: bool = False, scanner_visible: bool = True) -> int:
        index = len(objects)
        # Half the subresources live on the page's own origins, the rest on
        # third parties — keeps the 6-connections-per-origin limit binding.
        host = _ORIGINS[0] if rng.random() < 0.5 else rng.choice(_ORIGINS[1:])
        objects.append(WebObject(index, synth_url(rng), host, kind, size,
                                 parent, frac, blocking, script, lazy,
                                 scanner_visible))
        return index

    n_sync = rng.randint(js_lo, js_hi)
    n_async = rng.randint(ajs_lo, ajs_hi)
    scripting_budget = rng.uniform(ops_lo, ops_hi)
    # Synchronous scripts get the lion's share of execution.
    sync_ops = scripting_budget * 0.7 / max(n_sync, 1)
    async_ops = scripting_budget * 0.3 / max(n_async, 1)

    sync_indices = []
    for i in range(n_sync):
        size = int(_lognormalish(rng, 25e3, 280e3) * bytes_factor)
        script = _make_script(rng, f"sync{i}.js", size, sync_ops,
                              list_heavy, factory, cost)
        frac = rng.uniform(0.05, 0.95)
        # ~40 % of sync scripts (on a modern page; scaled by
        # ``chain_intensity`` for historical ones) are inserted by inline
        # scripts, so the preload scanner never sees them; the fetch starts
        # only when the parser reaches their position — pure network on the
        # critical path.
        visible = rng.random() >= 0.4 * chain_intensity
        index = add("js", size, 0, frac, True, script, scanner_visible=visible)
        sync_indices.append(index)
        # document.write / tag-manager chains: scripts that inject further
        # *blocking* scripts, invisible to the preload scanner.  These
        # serialize fetch+execute on the parser's critical path.
        parent = index
        depth = rng.randint(1, 3) if rng.random() < 0.8 * chain_intensity else 0
        for level in range(depth):
            size = int(_lognormalish(rng, 15e3, 120e3) * bytes_factor)
            chained = _make_script(rng, f"sync{i}_inj{level}.js", size,
                                   sync_ops * 0.35, list_heavy, factory, cost)
            child = len(objects)
            objects.append(WebObject(
                child, synth_url(rng), rng.choice(_AD_ORIGINS), "js", size,
                parent, frac, True, chained, False, False,
            ))
            parent = child
    for i in range(n_async):
        size = int(_lognormalish(rng, 15e3, 180e3) * bytes_factor)
        script = _make_script(rng, f"async{i}.js", size, async_ops,
                              list_heavy, factory, cost)
        add("js", size, 0, rng.uniform(0.05, 0.9), False, script)
    for _ in range(rng.randint(css_lo, css_hi)):
        add("css", int(_lognormalish(rng, 8e3, 90e3) * bytes_factor), 0,
            rng.uniform(0.0, 0.3))
    for _ in range(rng.randint(1, 3)):
        add("font", int(_lognormalish(rng, 15e3, 80e3)), 0, rng.uniform(0.0, 0.3))

    # Second- and third-level discoveries: sync scripts fetch XHRs and
    # more scripts, which in turn fetch data — the dependency chains that
    # put network time on the critical path even on a 10 ms LAN.
    for parent in sync_indices:
        for _ in range(rng.randint(1, 3)):
            kind = "xhr" if rng.random() < 0.55 else "js"
            size = int(_lognormalish(rng, 2e3, 60e3))
            script = None
            if kind == "js":
                script = _make_script(rng, "lazy.js", size, async_ops * 0.5,
                                      list_heavy, factory, cost)
            child = add(kind, size, parent, 1.0, False, script)
            if kind == "js":
                for _ in range(rng.randint(0, 2)):
                    add("xhr", int(_lognormalish(rng, 2e3, 30e3)), child, 1.0)

    # Images fill the remaining byte budget; those far down the document
    # are lazy-loaded after first paint.
    n_img = rng.randint(img_lo, img_hi)
    used = sum(o.size_bytes for o in objects)
    img_budget = max(bytes_target - used, n_img * 4e3)
    for _ in range(n_img):
        size = int(min(_lognormalish(rng, 4e3, 2.5 * img_budget / n_img), 400e3))
        frac = rng.uniform(0.1, 1.0)
        add("img", size, 0, frac, lazy=(frac > 0.7 and rng.random() < 0.5))

    layout_ops = 1.0e8 + 2.5e4 * len(objects) ** 1.2
    paint_ops = 0.6 * layout_ops
    return PageSpec(
        url=f"https://{root_host}/", category=category,
        objects=tuple(objects), layout_ops=layout_ops, paint_ops=paint_ops,
    )


def generate_corpus(
    n_pages: int = 50,
    seed: int = 42,
    categories: Sequence[str] = CATEGORIES,
    factory: Optional[RegexWorkloadFactory] = None,
) -> list[PageSpec]:
    """The "Alexa top-N" corpus: pages cycled across ``categories``."""
    factory = factory or RegexWorkloadFactory()
    cost = CpuCostModel()
    return [
        generate_page(seed + i, categories[i % len(categories)], factory, cost)
        for i in range(n_pages)
    ]


__all__ = [
    "CATEGORIES",
    "PageSpec",
    "SCRIPT_HEAVY",
    "WebObject",
    "generate_corpus",
    "generate_page",
]
