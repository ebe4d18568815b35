package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.KMeansD
import repro.linalg.{Block, Local, SparseOp}
import scala.collection.mutable.ArrayBuffer

/** Data-clustering baselines applied to the biadjacency rows of U:
  * K-Means [24], K-Medoids (CLARA-style) [29], Birch [69]. All operate in
  * JL-sketched row space (DESIGN.md §2) with L2-normalised rows.
  */
object DataClustering {

  private val SketchDim = 64

  /** Plain k-means on (sketched) data rows — the paper's K-Means row. */
  object KMeansBaseline extends Baseline {
    val name = "K-Means"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L // paper: "-" on MIND and larger

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val rows = Projections.uRows(edges, k, SketchDim, seed)
      try KMeansD.run(rows, k, seed = seed) finally rows.unpersist()
    }
  }

  /** CLARA-style k-medoids: PAM alternation on a driver sample, then
    * nearest-medoid assignment of every row.
    */
  object KMedoidsBaseline extends Baseline {
    val name = "K-Medoids"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val spark2 = spark
      import spark2.implicits._
      val block = Projections.uRows(edges, k, SketchDim, seed)
      // A Dataset, so that the sample is `Dataset.sample`'s.
      val rows = SparseOp.toDataset(block)
      val n = rows.count()
      val sampleSize = math.min(n, math.max(2000L, 20L * k)).toInt
      val frac = math.min(1.0, sampleSize * 2.0 / n)
      var sample = rows.sample(withReplacement = false, frac, seed).take(sampleSize).map(_.vec)
      if (sample.length < k) sample = rows.take(sampleSize).map(_.vec)

      val medoids = KMeansD.plusPlusSeed(sample, k, seed)
      var moved = true
      var pass = 0
      while (moved && pass < 8) {
        moved = false
        val assignS = sample.map(p => Local.argmax(medoids.map(m => -Local.sqDist(p, m))))
        for (c <- 0 until k) {
          val members = sample.indices.filter(assignS(_) == c)
          if (members.nonEmpty) {
            // Medoid = member minimising total within-cluster distance.
            val best = members.minBy(i => members.map(j => Local.sqDist(sample(i), sample(j))).sum)
            if (!java.util.Arrays.equals(sample(best), medoids(c))) {
              medoids(c) = sample(best).clone(); moved = true
            }
          }
        }
        pass += 1
      }
      // The medoids (k × SketchDim) travel in the task closure.
      val out = rows.map { r =>
        var best = 0; var bd = Local.sqDist(r.vec, medoids(0)); var c = 1
        while (c < medoids.length) {
          val d = Local.sqDist(r.vec, medoids(c)); if (d < bd) { bd = d; best = c }; c += 1
        }
        (r.id, best)
      }.toDF("id", "cluster").transform(Block.localize)
      block.unpersist()
      out
    }
  }

  /** Birch: phase-1 leader-style CF absorption with a radius threshold, then
    * weighted k-means over the CF centroids (global step), assignment of each
    * row to its CF's cluster — the two Birch phases without tree rebalancing.
    */
  object BirchBaseline extends Baseline {
    val name = "Birch"
    override def feasible(paperEdges: Long, k: Int): Boolean = paperEdges <= 4000000L

    def cluster(spark: SparkSession, edges: DataFrame, k: Int, seed: Long): DataFrame = {
      val spark2 = spark
      import spark2.implicits._
      val rows = Projections.uRows(edges, k, SketchDim, seed)
      val slabs = try rows.collect() finally rows.unpersist() // feasibility cap keeps this small
      val ids = slabs.flatMap(_.ids)
      val vecs = slabs.flatMap(s => Array.tabulate(s.size)(s.row))
      val threshold = 0.35 // radius in L2-normalised sketch space

      val centroids = ArrayBuffer.empty[Array[Double]] // running means
      val counts = ArrayBuffer.empty[Long]
      val cfOf = new Array[Int](vecs.length)
      var i = 0
      while (i < vecs.length) {
        val v = vecs(i)
        var best = -1; var bd = Double.MaxValue
        var c = 0
        while (c < centroids.length) {
          val d = Local.sqDist(v, centroids(c))
          if (d < bd) { bd = d; best = c }
          c += 1
        }
        if (best >= 0 && bd <= threshold * threshold) {
          val ctr = centroids(best); val n1 = counts(best) + 1
          var j = 0
          while (j < ctr.length) { ctr(j) += (v(j) - ctr(j)) / n1; j += 1 }
          counts(best) = n1
          cfOf(i) = best
        } else {
          centroids += v.clone(); counts += 1L
          cfOf(i) = centroids.length - 1
        }
        i += 1
      }

      // Global step: weighted k-means over CF centroids.
      val cfArr = centroids.toArray
      val wArr = counts.toArray
      var centers = KMeansD.plusPlusSeed(cfArr, math.min(k, cfArr.length), seed)
      if (centers.length < k) centers = centers ++ Array.fill(k - centers.length)(cfArr(0).clone())
      var it = 0
      var cfCluster = new Array[Int](cfArr.length)
      while (it < 20) {
        cfCluster = cfArr.map { v =>
          var best = 0; var bd = Local.sqDist(v, centers(0)); var c = 1
          while (c < centers.length) {
            val d = Local.sqDist(v, centers(c)); if (d < bd) { bd = d; best = c }; c += 1
          }
          best
        }
        for (c <- centers.indices) {
          val members = cfArr.indices.filter(cfCluster(_) == c)
          if (members.nonEmpty) {
            val tot = members.map(wArr(_)).sum.toDouble
            val mean = new Array[Double](SketchDim)
            members.foreach { m =>
              var j = 0
              while (j < SketchDim) { mean(j) += cfArr(m)(j) * wArr(m) / tot; j += 1 }
            }
            centers(c) = mean
          }
        }
        it += 1
      }
      ids.indices.map(i => (ids(i), cfCluster(cfOf(i)))).toDF("id", "cluster")
    }
  }
}
