"""The per-page pipeline: one call from parsed pages to directory blocks.

``page_runs`` selects a document's pages and yields a ``PageRun`` for each.
A run computes each stage (annotations, features, classifier score, spans,
tree, blocks) when it is first read and reuses the earlier ones, so no stage
runs twice on a page.  Within a stage, too, values are computed when first
read: ``annotate`` scans nothing, and a group runs the phrase pass or a
surface label's regex when a later stage first reads one of those labels.
The features are computed one by one as the classifier's trees read them,
each reading only the labels it counts, and the address-block feature
tests numbers and postcodes by presence.  A split on a count sums it over
the groups in order only until the sum passes the split's threshold, and
a later read resumes the sum.  Segmentation reads organizations, persons,
roles and address types.  So a page that is scored and not selected
computes only the features its trees test, scans a group for a count only
while a split on it is undecided, lists no numbers or postcodes and builds
no ``Annotation``, and no stage builds the full sorted annotation list.
Parsing checked each group and kept its text, box, flags and border sides,
and a group builds its lines, segment boxes and styles when first read:
segmentation reads them, and the stages before it do not, so a page that
is only scored builds none.

The stages are called through this module's names so that tests can
substitute them.  The package ``__init__`` must not import this module:
tracing wraps the stage functions in their own modules after ``import
dirtree``, and names bound here before that would bypass the wrappers.
"""

from __future__ import annotations

from functools import cached_property

from .annotate import Gazetteer, annotate
from .features import extract_features
from .forest import ForestModel, predict_score
from .segment import EmptyPageError, segment_page
from .tree import TreeParams, build_tree, directory_blocks, validate_tree
from .visual import VisualPage


class PageRun:
    """One page's pass through the pipeline."""

    def __init__(self, page: VisualPage, index: int, gaz: Gazetteer,
                 model: "ForestModel | None" = None, threshold: float = 0.5,
                 params: TreeParams = TreeParams()):
        self.page, self.index, self.gaz = page, index, gaz
        self.model, self.threshold, self.params = model, threshold, params

    @cached_property
    def annotations(self):
        return annotate(self.page, self.gaz)

    @cached_property
    def features(self):
        return extract_features(self.page, self.annotations)

    @cached_property
    def score(self) -> float:
        return predict_score(self.model, self.features)

    @cached_property
    def label(self) -> int:
        """1 when the page scores at or above the threshold: a directory page."""
        return 1 if self.score >= self.threshold else 0

    @cached_property
    def spans(self):
        return segment_page(self.page, self.annotations)

    @cached_property
    def tree(self):
        t = build_tree(self.spans, self.params)
        validate_tree(t)
        return t

    @cached_property
    def blocks(self):
        return directory_blocks(self.tree)


def check_indexes(indexes, count: int) -> None:
    """Raise ValueError unless each index names one of ``count`` pages, once."""
    seen = set()
    for i in indexes:
        if i < 0 or i >= count:
            raise ValueError(f"page {i} out of range (document has {count})")
        if i in seen:
            raise ValueError(f"page {i} given twice")
        seen.add(i)


def page_runs(pages: "list[VisualPage]", gaz: Gazetteer, which="all", model=None,
              threshold: float = 0.5, params: TreeParams = TreeParams(),
              skip_empty: bool = True):
    """Yield a PageRun for each selected page, in order.

    ``which`` is "all"; "auto", the pages ``model`` labels 1 at
    ``threshold``, whose runs keep the annotations made to score them; or a
    list of distinct page indexes, in the order given.  With ``skip_empty``
    a page with no text to segment is left out, or raises EmptyPageError
    when it was named in a list.  Runs are made as they are yielded and not
    kept, so a page's stages are freed once the caller lets go of its run.
    """
    explicit = which not in ("all", "auto")
    if explicit:
        check_indexes(which, len(pages))
    elif which == "auto" and model is None:
        raise ValueError("selecting pages by classifier needs a model")
    for i in which if explicit else range(len(pages)):
        run = PageRun(pages[i], i, gaz, model, threshold, params)
        if which == "auto" and not run.label:
            continue
        if skip_empty:
            try:
                run.spans
            except EmptyPageError:
                if explicit:
                    raise
                continue
        yield run
