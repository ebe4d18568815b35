package repro.eval

import repro.{SparkSpec, TestGraphs}
import repro.baselines.{DataClustering, NmfBaseline, Registry}
import repro.data.Catalog

/** The table harness over one small dataset. */
class TableRunnerSpec extends SparkSpec {

  test("a table run scores every method and leaves the session's persisted RDDs where they were") {
    val sc = spark.sparkContext
    val cfg = TestGraphs.easy(spark).config
    val spec = Catalog.Spec("easy", cfg, "120", "90", "2.4K", cfg.targetEdges, cfg.k, "test graph")
    val methods = Registry.ours ++ Seq(DataClustering.KMeansBaseline, NmfBaseline)
    val before = sc.getPersistentRDDs.keySet
    val table = TableRunner.run(spark, Seq(spec), methods, verbose = false)
    val still = sc.getPersistentRDDs.filter { case (id, _) => !before.contains(id) }.values
    assert(still.isEmpty, s"still persisted: ${still.mkString(", ")}")
    methods.foreach { m =>
      val cell = table.cells((m.name, spec.name))
      assert(cell.scores.isDefined, s"${m.name} failed")
    }
  }
}
